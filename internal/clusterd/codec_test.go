package clusterd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWireCodec holds the hand encoders and parsers to encoding/json:
//
// GIVEN a Request and a Response built from arbitrary fields — strings with
// quotes, backslashes, HTML bytes, control bytes, invalid UTF-8, U+2028 —
// WHEN they are appended THEN the bytes are json.Marshal's and a newline,
// and the parsers take that line back whenever every string in it went out
// verbatim. GIVEN any bytes WHEN a parser accepts a prefix of them THEN
// json.Unmarshal decodes that prefix to the same value, the encoder writes
// exactly that prefix for it, and the parser refuses no shorter prefix
// outright: it waits for more.
func FuzzWireCodec(f *testing.F) {
	f.Add("submit", true, 11, 4, int64(30000), int64(1<<30), "tenant-0",
		true, int64(7), "", int64(0), StateServing, false)
	f.Add("ping", false, 0, 0, int64(0), int64(0), "",
		false, int64(0), `clusterd: unknown op "<&>"`, int64(100), "x \xff\x01\"\\", true)
	f.Add("ping", true, 1, 1, int64(1), int64(0), "<tenant>&co",
		true, int64(1), "a<b", int64(0), "&", false)
	f.Add("st\x7fats", true, -1, -9223372036854775808, int64(-1), int64(-5), "a\tb",
		false, int64(-9223372036854775808), "\x00", int64(9223372036854775807), "}", false)
	f.Fuzz(func(t *testing.T, op string, withJob bool, pri, tasks int, dur, foot int64, user string,
		ok bool, id int64, msg string, retry int64, state string, withStats bool) {
		req := Request{Op: op}
		if withJob {
			req.Job = &JobRequest{Priority: pri, Tasks: tasks, DurationMS: dur, MemFootprintBytes: foot, User: user}
		}
		resp := Response{OK: ok, JobID: id, Error: msg, RetryAfterMS: retry, State: state}
		if withStats {
			resp.Stats = &Stats{State: state, Submitted: id, QueueDepth: tasks, AdmissionP99Sec: float64(dur) / 7}
		}

		reqLine := appendRequest(nil, &req)
		if want, _ := json.Marshal(&req); !bytes.Equal(reqLine, append(want, '\n')) {
			t.Fatalf("request appended as %q, json.Marshal writes %q", reqLine, want)
		}
		respLine, err := appendResponse(nil, &resp)
		want, werr := json.Marshal(&resp)
		if (err != nil) != (werr != nil) || err == nil && !bytes.Equal(respLine, append(want, '\n')) {
			t.Fatalf("response appended as %q (%v), json.Marshal writes %q (%v)", respLine, err, want, werr)
		}

		verbatimAll := func(ss ...string) bool {
			for _, s := range ss {
				for i := 0; i < len(s); i++ {
					if !verbatim(s[i]) {
						return false
					}
				}
			}
			return true
		}
		if n := checkRequestParse(t, reqLine); n != len(reqLine)-1 && verbatimAll(op, user) {
			t.Errorf("request line %q written verbatim, parser took %d bytes of it", reqLine, n)
		}
		if n := checkResponseParse(t, respLine); n != len(respLine)-1 && !withStats && verbatimAll(msg, state) {
			t.Errorf("response line %q written verbatim, parser took %d bytes of it", respLine, n)
		}
		for _, s := range []string{op, user, msg, state} {
			checkRequestParse(t, []byte(s))
			checkResponseParse(t, []byte(s))
		}
	})
}

// checkRequestParse runs the request parser over line and holds what it
// accepts to the FuzzWireCodec contract; it returns the bytes accepted.
func checkRequestParse(t *testing.T, line []byte) int {
	t.Helper()
	var req Request
	var job JobRequest
	p := parser{b: line}
	if !p.request(&req, &job) {
		return 0
	}
	var ref Request
	if err := json.Unmarshal(line[:p.i], &ref); err != nil || !reflect.DeepEqual(req, ref) {
		t.Fatalf("parser took %q as %+v, json.Unmarshal makes %+v (%v)", line[:p.i], req, ref, err)
	}
	if again := appendRequest(nil, &req); !bytes.Equal(again, append(line[:p.i:p.i], '\n')) {
		t.Fatalf("parser took %q, which the encoder writes as %q", line[:p.i], again)
	}
	for k := 0; k < p.i; k++ {
		if q := (parser{b: line[:k]}); q.request(&req, &job) || !q.more {
			t.Fatalf("parser did not wait for more of %q, a prefix of the request %q", line[:k], line[:p.i])
		}
	}
	return p.i
}

// checkResponseParse does for the response parser what checkRequestParse
// does for the request parser, and holds decodeResponse to json.Unmarshal
// on the line up to the first newline.
func checkResponseParse(t *testing.T, line []byte) int {
	t.Helper()
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		var resp, ref Response
		if err := decodeResponse(line[:i+1], &resp); err == nil {
			if err := json.Unmarshal(line[:i+1], &ref); err != nil || !reflect.DeepEqual(resp, ref) {
				t.Fatalf("reply %q decoded as %+v, json.Unmarshal makes %+v (%v)", line[:i+1], resp, ref, err)
			}
		}
	}
	var resp Response
	p := parser{b: line}
	if !p.response(&resp) {
		return 0
	}
	var ref Response
	if err := json.Unmarshal(line[:p.i], &ref); err != nil || !reflect.DeepEqual(resp, ref) {
		t.Fatalf("parser took %q as %+v, json.Unmarshal makes %+v (%v)", line[:p.i], resp, ref, err)
	}
	if again, _ := appendResponse(nil, &resp); !bytes.Equal(again, append(line[:p.i:p.i], '\n')) {
		t.Fatalf("parser took %q, which the encoder writes as %q", line[:p.i], again)
	}
	for k := 0; k < p.i; k++ {
		if q := (parser{b: line[:k]}); q.response(&resp) || !q.more {
			t.Fatalf("parser did not wait for more of %q, a prefix of the response %q", line[:k], line[:p.i])
		}
	}
	return p.i
}

// GIVEN the integers at the edges of what encoding/json writes WHEN the
// parser reads them THEN it takes exactly the canonical ones that fit, and
// refuses the rest at the byte that rules them out, before the value ends.
func TestParserIntegers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		bits int
		want int64
		ok   bool
	}{
		{"0,", 64, 0, true},
		{"-1}", 64, -1, true},
		{"9223372036854775807}", 64, 1<<63 - 1, true},
		{"-9223372036854775808}", 64, -1 << 63, true},
		{"2147483647}", 32, 1<<31 - 1, true},
		{"-2147483648}", 32, -1 << 31, true},
		{"9223372036854775808", 64, 0, false},
		{"-9223372036854775809", 64, 0, false},
		{"2147483648", 32, 0, false},
		{"01", 64, 0, false},
		{"-0", 64, 0, false},
		{"-}", 64, 0, false},
		{"+1}", 64, 0, false},
	} {
		p := parser{b: []byte(tc.in)}
		got, ok := p.int(tc.bits)
		if ok != tc.ok || got != tc.want || p.more {
			t.Errorf("int(%q, %d bits) = %d, %v (more %v), want %d, %v", tc.in, tc.bits, got, ok, p.more, tc.want, tc.ok)
		}
	}
	// A fraction or an exponent is the next field's to refuse.
	for _, in := range []string{`{"ok":true,"job_id":1.0}`, `{"ok":true,"job_id":1e3}`, `{"ok":true,"job_id":0}`} {
		var resp Response
		if p := (parser{b: []byte(in)}); p.response(&resp) || p.more {
			t.Errorf("response parser took %q, or waits for more of it", in)
		}
	}
}
