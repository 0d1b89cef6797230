package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// ValidateJSONSchemaBytes parses a schema and a document from raw JSON and
// checks the document against a small, dependency-free subset of JSON
// Schema: "type" (string or list), "required", "properties",
// "additionalProperties" (boolean form), "items" (single schema), "enum",
// and "minimum". That subset is enough to pin down the clusterrun report
// format in CI without pulling in an external validator; unknown keywords
// are ignored, as the spec allows.
func ValidateJSONSchemaBytes(schemaJSON, docJSON []byte) error {
	var schema map[string]any
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return fmt.Errorf("parse schema: %w", err)
	}
	var doc any
	if err := json.Unmarshal(docJSON, &doc); err != nil {
		return fmt.Errorf("parse document: %w", err)
	}
	return validateSchema(schema, doc, "$")
}

func jsonTypeOf(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case string:
		return "string"
	case float64:
		if t == math.Trunc(t) && !math.IsInf(t, 0) {
			return "integer"
		}
		return "number"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func typeMatches(want, got string) bool {
	// JSON Schema treats every integer as a number too.
	return want == got || (want == "number" && got == "integer")
}

func validateSchema(schema map[string]any, doc any, path string) error {
	got := jsonTypeOf(doc)

	switch want := schema["type"].(type) {
	case string:
		if !typeMatches(want, got) {
			return fmt.Errorf("%s: expected type %s, got %s", path, want, got)
		}
	case []any:
		ok := false
		for _, w := range want {
			if ws, isStr := w.(string); isStr && typeMatches(ws, got) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%s: type %s not in allowed set %v", path, got, want)
		}
	}

	if enum, ok := schema["enum"].([]any); ok {
		found := false
		for _, e := range enum {
			if e == doc {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: value %v not in enum %v", path, doc, enum)
		}
	}

	if minv, ok := schema["minimum"].(float64); ok {
		if n, isNum := doc.(float64); isNum && n < minv {
			return fmt.Errorf("%s: value %v below minimum %v", path, n, minv)
		}
	}

	if obj, isObj := doc.(map[string]any); isObj {
		if req, ok := schema["required"].([]any); ok {
			for _, r := range req {
				name, isStr := r.(string)
				if !isStr {
					continue
				}
				if _, present := obj[name]; !present {
					return fmt.Errorf("%s: missing required property %q", path, name)
				}
			}
		}
		props, _ := schema["properties"].(map[string]any)
		for name, sub := range props {
			subSchema, isMap := sub.(map[string]any)
			if !isMap {
				continue
			}
			if v, present := obj[name]; present {
				if err := validateSchema(subSchema, v, path+"."+name); err != nil {
					return err
				}
			}
		}
		if extra, ok := schema["additionalProperties"].(bool); ok && !extra {
			var unknown []string
			for name := range obj {
				if _, declared := props[name]; !declared {
					unknown = append(unknown, name)
				}
			}
			if len(unknown) > 0 {
				sort.Strings(unknown)
				return fmt.Errorf("%s: unexpected properties %v", path, unknown)
			}
		}
	}

	if arr, isArr := doc.([]any); isArr {
		if items, ok := schema["items"].(map[string]any); ok {
			for i, v := range arr {
				if err := validateSchema(items, v, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}

	return nil
}
