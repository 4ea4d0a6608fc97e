package diag

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/token"
)

// jsonw appends indented JSON in one pass, byte for byte what
// encoding/json's Encoder writes with SetIndent("", "  "): members in the
// order the caller writes them, strings HTML-escaped, empty containers
// closed on the line that opens them. The writers call its methods in
// document order, so no reflection and no re-indenting pass is needed.
type jsonw struct {
	b     []byte
	depth int
	// first is true while the innermost open container has no member.
	first bool
	// keys is the sort scratch for string maps, reused across maps.
	keys []string
}

// newJSONW returns a writer whose buffer holds size bytes plus an eighth
// for escapes, and whose sort scratch holds the largest map's keys.
func newJSONW(size, maxKeys int) jsonw {
	w := jsonw{b: make([]byte, 0, size+size/8)}
	if maxKeys > 0 {
		w.keys = make([]string, 0, maxKeys)
	}
	return w
}

const jsonIndent = "                                " // 16 levels; deeper levels append in steps

func (w *jsonw) newline() {
	w.b = append(w.b, '\n')
	for n := 2 * w.depth; n > 0; {
		k := min(n, len(jsonIndent))
		w.b = append(w.b, jsonIndent[:k]...)
		n -= k
	}
}

// open starts an object ('{') or array ('[').
func (w *jsonw) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost container with '}' or ']'.
func (w *jsonw) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// elem starts the next array element.
func (w *jsonw) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts the next object member.
func (w *jsonw) key(k string) {
	w.elem()
	w.b = appendJSONString(w.b, k)
	w.b = append(w.b, ':', ' ')
}

func (w *jsonw) str(s string) { w.b = appendJSONString(w.b, s) }

func (w *jsonw) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

// text writes {"text": s}, SARIF's message object.
func (w *jsonw) text(s string) {
	w.open('{')
	w.key("text")
	w.str(s)
	w.close('}')
}

// pos writes a token.Pos as encoding/json renders its tagged fields.
func (w *jsonw) pos(p token.Pos) {
	w.open('{')
	w.key("line")
	w.int(p.Line)
	w.key("col")
	w.int(p.Col)
	w.close('}')
}

// strMap writes m with its keys in sorted order, as encoding/json does.
func (w *jsonw) strMap(m map[string]string) {
	keys := w.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.open('{')
	for _, k := range keys {
		w.key(k)
		w.str(m[k])
	}
	w.close('}')
	w.keys = keys[:0]
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped under
// HTML escaping: printable characters other than '"', '\\', '<', '>' and
// '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted exactly as encoding/json does with
// HTML escaping on: short escapes for '"', '\\', \b, \f, \n, \r and \t,
// \u00XX for the other control characters and for '<', '>' and '&',
// \ufffd for each byte of invalid UTF-8, and \u2028/\u2029 for the line
// and paragraph separators.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
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
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
