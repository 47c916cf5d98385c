package api

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/service"
)

// pollBufs recycles poll-body buffers across requests: a poll is the
// node's most frequent response and its body runs to ~10 KB on a wide
// frontier (≈ 140 B per published plan of a 4-table query).
var pollBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendPollBody appends the JSON body of a poll response to dst. The
// bytes are exactly what encoding/json's Encoder writes for the
// map[string]any this replaced (DESIGN.md D13): keys in ascending order
// with "drift", "provenance" and "error" only when set, strings
// HTML-escaped, floats in ES6 form, a trailing newline. It allocates
// nothing beyond growing dst. A non-finite cost or row estimate — which
// JSON cannot carry — is an error. Each plan is plan.Node.AppendJSON's
// object, copied from st.Rendered when the table holds the plan.
func appendPollBody(dst []byte, st *service.Status) ([]byte, error) {
	dst = append(dst, '{')
	if st.Drift != "" {
		dst = append(dst, `"drift":`...)
		dst = appendJSONString(dst, st.Drift)
		dst = append(dst, ',')
	}
	if st.Err != "" {
		dst = append(dst, `"error":`...)
		dst = appendJSONString(dst, st.Err)
		dst = append(dst, ',')
	}
	dst = append(dst, `"firstFrontierUs":`...)
	dst = strconv.AppendInt(dst, st.FirstFrontier.Microseconds(), 10)
	dst = append(dst, `,"frontier":[`...)
	for i, p := range st.Frontier {
		if i > 0 {
			dst = append(dst, ',')
		}
		// A plan a restored session publishes from its snapshot was
		// rendered once for every session restored from it.
		if b, ok := st.Rendered.Lookup(p); ok {
			dst = append(dst, b...)
			continue
		}
		var ok bool
		if dst, ok = p.AppendJSON(dst); !ok {
			if !jsonFinite(p.Cost) {
				return dst, fmt.Errorf("api: session %s: frontier plan %d has non-finite cost %v", st.ID, i, p.Cost)
			}
			return dst, fmt.Errorf("api: session %s: frontier plan %d has non-finite row estimate %v", st.ID, i, p.Rows)
		}
	}
	dst = append(dst, `],"id":`...)
	dst = appendJSONString(dst, st.ID)
	if st.Provenance != "" {
		dst = append(dst, `,"provenance":`...)
		dst = appendJSONString(dst, st.Provenance)
	}
	dst = append(dst, `,"query":`...)
	dst = appendJSONString(dst, st.Query)
	dst = append(dst, `,"resolution":`...)
	dst = strconv.AppendInt(dst, int64(st.Resolution), 10)
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, st.State.String())
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, int64(st.Steps), 10)
	dst = append(dst, `,"warm":`...)
	dst = strconv.AppendBool(dst, st.WarmStarted)
	return append(dst, '}', '\n'), nil
}

// jsonFinite reports whether JSON can carry every component of c.
func jsonFinite(c []float64) bool {
	for _, x := range c {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with
// encoding/json's default escaping: quote, backslash and control
// characters, the HTML-sensitive <, > and &, U+2028 and U+2029, and
// U+FFFD in place of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
