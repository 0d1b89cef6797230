package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix is the suppression directive marker. The full form is
//
//	//lint:ignore analyzer1[,analyzer2...] reason text
//
// matching the staticcheck convention, so editors and humans need only
// one habit.
const ignorePrefix = "//lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzers map[string]bool
	pos       token.Position
	// line is the line the comment sits on.
	line int
	// endLine is the last line the directive covers: its own line for
	// the trailing form, the next line for a standalone comment.
	endLine int
	// hits counts the diagnostics this directive suppressed in one Run;
	// a well-formed directive with zero hits is stale.
	hits int
}

// ignoreIndex maps file → directives, plus the diagnostics produced for
// malformed directives.
type ignoreIndex struct {
	byFile    map[string][]directive
	malformed []Diagnostic
}

// buildIgnoreIndex scans every file of every unit for suppression
// directives. A directive missing its reason (or naming no analyzer) is
// itself a diagnostic — suppressions must say why, or they rot.
func buildIgnoreIndex(units []*Unit) *ignoreIndex {
	idx := &ignoreIndex{byFile: make(map[string][]directive)}
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						idx.malformed = append(idx.malformed, Diagnostic{
							Analyzer: "lint",
							Pos:      pos,
							Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\" (the reason is mandatory)",
						})
						continue
					}
					set := make(map[string]bool)
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							set[name] = true
						}
					}
					dir := directive{analyzers: set, pos: pos, line: pos.Line, endLine: pos.Line}
					if standaloneComment(u.Fset, f, c) {
						dir.endLine++
					}
					idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], dir)
				}
			}
		}
	}
	return idx
}

// standaloneComment reports whether c is the first thing on its line,
// i.e. no declaration or statement of f starts before it on that line.
func standaloneComment(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	first := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !first {
			return false
		}
		if n.Pos() < c.Pos() && fset.Position(n.Pos()).Line == line {
			// Something syntactic starts on this line before the
			// comment: it is a trailing comment.
			if _, isFile := n.(*ast.File); !isFile {
				first = false
			}
		}
		return first
	})
	return first
}

// suppressed reports whether d is covered by a directive naming its
// analyzer, and credits every directive that covers it.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	hit := false
	dirs := idx.byFile[d.Pos.Filename]
	for i := range dirs {
		dir := &dirs[i]
		if !dir.analyzers[d.Analyzer] {
			continue
		}
		if d.Pos.Line >= dir.line && d.Pos.Line <= dir.endLine {
			dir.hits++
			hit = true
		}
	}
	return hit
}

// staleDirectives returns a diagnostic for every directive that names an
// analyzer the suite does not have (misspelled, or retired: it can never
// suppress anything, so no run would ever judge it), and for every
// well-formed directive that suppressed nothing in this run even though
// every analyzer it names was executed: the finding it excused has been
// fixed or has moved, and an ignore that suppresses nothing is a latent
// hole the next real finding will fall through silently. Directives
// naming a known analyzer outside the run set are left alone — a partial
// run cannot judge them.
func (idx *ignoreIndex) staleDirectives(known, ran map[string]bool) []Diagnostic {
	files := make([]string, 0, len(idx.byFile))
	for f := range idx.byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []Diagnostic
	for _, f := range files {
		dirs := idx.byFile[f]
		for i := range dirs {
			dir := &dirs[i]
			var unknown []string
			stale := dir.hits == 0
			for name := range dir.analyzers {
				if !known[name] {
					unknown = append(unknown, name)
				}
				stale = stale && ran[name]
			}
			var msg string
			switch {
			case len(unknown) > 0:
				sort.Strings(unknown)
				msg = "//lint:ignore names unknown analyzer " + strings.Join(unknown, ",") + ": fix the name or delete the directive"
			case stale:
				msg = "stale //lint:ignore directive: it suppresses no current finding — delete it, or re-point it at the line it excuses"
			default:
				continue
			}
			out = append(out, Diagnostic{Analyzer: "lint", Pos: dir.pos, Message: msg})
		}
	}
	return out
}
