package clusterd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
)

// The wire's two hot shapes by hand: the Request a Client writes and the
// Response a daemon answers it with. The encoders append exactly the bytes
// json.Encoder.Encode writes for the same value — declared field order,
// omitempty, no spaces, a trailing newline — and the parsers accept only
// that canonical form, decoding it to what json.Unmarshal would. Anything
// else is encoding/json's: a string holding a byte outside the verbatim set
// is escaped by it, a Response carrying Stats is marshalled by it whole,
// and input the parsers refuse is decoded by it.

// verbatim reports whether encoding/json writes c inside a string as itself:
// printable ASCII other than the quote, the backslash, and the three bytes
// its HTML escaping rewrites.
func verbatim(c byte) bool {
	return ' ' <= c && c <= '~' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !verbatim(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendRequest appends req as json.Encoder.Encode writes it.
func appendRequest(b []byte, req *Request) []byte {
	b = append(b, `{"op":`...)
	b = appendString(b, req.Op)
	if jr := req.Job; jr != nil {
		b = append(b, `,"job":{"priority":`...)
		b = strconv.AppendInt(b, int64(jr.Priority), 10)
		b = append(b, `,"tasks":`...)
		b = strconv.AppendInt(b, int64(jr.Tasks), 10)
		b = append(b, `,"duration_ms":`...)
		b = strconv.AppendInt(b, jr.DurationMS, 10)
		if jr.MemFootprintBytes != 0 {
			b = append(b, `,"mem_footprint_bytes":`...)
			b = strconv.AppendInt(b, jr.MemFootprintBytes, 10)
		}
		if jr.User != "" {
			b = append(b, `,"user":`...)
			b = appendString(b, jr.User)
		}
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

// appendResponse appends resp as json.Encoder.Encode writes it, failing
// where Encode fails.
func appendResponse(b []byte, resp *Response) ([]byte, error) {
	if resp.Stats != nil {
		out, err := json.Marshal(resp)
		if err != nil {
			return b, err
		}
		return append(append(b, out...), '\n'), nil
	}
	if resp.OK {
		b = append(b, `{"ok":true`...)
	} else {
		b = append(b, `{"ok":false`...)
	}
	if resp.JobID != 0 {
		b = append(b, `,"job_id":`...)
		b = strconv.AppendInt(b, resp.JobID, 10)
	}
	if resp.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, resp.Error)
	}
	if resp.RetryAfterMS != 0 {
		b = append(b, `,"retry_after_ms":`...)
		b = strconv.AppendInt(b, resp.RetryAfterMS, 10)
	}
	if resp.State != "" {
		b = append(b, `,"state":`...)
		b = appendString(b, resp.State)
	}
	return append(b, "}\n"...), nil
}

// parser reads one canonical value from the front of b. A method that does
// not find what it expects returns false; it sets more when b ended first,
// so that more bytes could still make the value canonical.
type parser struct {
	b    []byte
	i    int
	more bool
}

// lit consumes s.
func (p *parser) lit(s string) bool {
	rest := p.b[p.i:]
	if len(rest) < len(s) {
		p.more = p.more || string(rest) == s[:len(rest)]
		return false
	}
	if string(rest[:len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// int consumes an integer as encoding/json writes one that fits in bits:
// no sign on zero, no leading zeros, no fraction or exponent. Like every
// method here it refuses at the first byte that rules the form out, not
// later than a decoder's syntax error would.
func (p *parser) int(bits int) (int64, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if i > start && u == 0 || neg && i == start && d == 0 { // a leading zero, or -0
			return 0, false
		}
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if i == len(b) {
		p.more = true
		return 0, false
	}
	if i == start {
		return 0, false
	}
	p.i = i
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// str consumes a string encoding/json writes verbatim and returns its bytes,
// which alias b.
func (p *parser) str() ([]byte, bool) {
	if !p.lit(`"`) {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		if c := p.b[j]; c == '"' {
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		} else if !verbatim(c) {
			return nil, false
		}
	}
	p.more = true
	return nil, false
}

// optInt consumes key and the integer after it when key comes next. What
// follows key must not be zero, which omitempty leaves out.
func (p *parser) optInt(key string, v *int64) bool {
	if !p.lit(key) {
		return true
	}
	var ok bool
	*v, ok = p.int(64)
	return ok && *v != 0
}

// optStr is optInt for a string, which must not be empty.
func (p *parser) optStr(key string, v *[]byte) bool {
	if !p.lit(key) {
		return true
	}
	var ok bool
	*v, ok = p.str()
	return ok && len(*v) != 0
}

// intern returns the one of known that b spells, or else a copy of b.
func intern(b []byte, known ...string) string {
	for _, s := range known {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// request parses a canonical Request into req, pointing req.Job at job when
// the request carries one. job.User keeps its string when the bytes are the
// same, so a client that always names the same user costs no allocation.
func (p *parser) request(req *Request, job *JobRequest) bool {
	if !p.lit(`{"op":`) {
		return false
	}
	op, ok := p.str()
	if !ok {
		return false
	}
	req.Op = intern(op, "ping", "submit", "stats")
	req.Job = nil
	if p.lit(`,"job":{"priority":`) {
		if !p.job(job) {
			return false
		}
		req.Job = job
	}
	return p.lit("}")
}

func (p *parser) job(job *JobRequest) bool {
	var (
		pri, tasks, dur, foot int64
		user                  []byte
		ok                    bool
	)
	if pri, ok = p.int(strconv.IntSize); !ok || !p.lit(`,"tasks":`) {
		return false
	}
	if tasks, ok = p.int(strconv.IntSize); !ok || !p.lit(`,"duration_ms":`) {
		return false
	}
	if dur, ok = p.int(64); !ok || !p.optInt(`,"mem_footprint_bytes":`, &foot) || !p.optStr(`,"user":`, &user) {
		return false
	}
	u := job.User
	if string(user) != u {
		u = string(user)
	}
	*job = JobRequest{Priority: int(pri), Tasks: int(tasks), DurationMS: dur, MemFootprintBytes: foot, User: u}
	return p.lit("}")
}

// response parses a canonical Response without Stats into resp.
func (p *parser) response(resp *Response) bool {
	*resp = Response{}
	switch {
	case p.lit(`{"ok":true`):
		resp.OK = true
	case !p.lit(`{"ok":false`):
		return false
	}
	var msg, state []byte
	if !p.optInt(`,"job_id":`, &resp.JobID) || !p.optStr(`,"error":`, &msg) ||
		!p.optInt(`,"retry_after_ms":`, &resp.RetryAfterMS) || !p.optStr(`,"state":`, &state) {
		return false
	}
	resp.Error = string(msg)
	resp.State = intern(state, StateServing, StateDraining, StateStopped)
	return p.lit("}")
}

// connBufSize is the read buffer of a daemon connection: the longest request
// the parser takes, since it parses out of the buffer.
const connBufSize = 4 << 10

// readRequest parses the next request from br. Like the decoder it skips
// whitespace first, and it reads further only while what it holds is a
// canonical prefix; it never waits for a byte past the closing brace. It
// reports false, leaving the value unread, for input not in canonical form,
// for a read error, for a request longer than br's buffer, and for one that
// arrives in so many pieces that parsing it afresh on each would cost more
// than four buffers' worth.
func readRequest(br *bufio.Reader, req *Request, job *JobRequest) bool {
	for {
		b, err := br.Peek(1)
		if err != nil {
			return false
		}
		if !isSpace(b[0]) {
			break
		}
		br.Discard(1)
	}
	for work := 0; ; {
		b, _ := br.Peek(br.Buffered())
		p := parser{b: b}
		if p.request(req, job) {
			br.Discard(p.i)
			return true
		}
		if work += len(b); !p.more || work > 4*connBufSize {
			return false
		}
		if _, err := br.Peek(len(b) + 1); err != nil {
			return false
		}
	}
}

// isSpace is the whitespace JSON allows between values.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// errNotOneObject is a reply line that is not one JSON object.
var errNotOneObject = errors.New("reply line is not one JSON object")

// decodeResponse decodes one reply line, newline included: by hand when it is
// canonical, else by encoding/json, which must find exactly one object in it.
func decodeResponse(line []byte, resp *Response) error {
	p := parser{b: line[:len(line)-1]}
	if p.response(resp) && p.i == len(p.b) {
		return nil
	}
	*resp = Response{}
	if t := bytes.TrimLeft(line, " \t\r\n"); len(t) == 0 || t[0] != '{' {
		return errNotOneObject
	}
	return json.Unmarshal(line, resp)
}
