package scenario

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"
)

// jsonChunk is the size at which jsonWriter hands its buffer to the
// underlying writer.
const jsonChunk = 64 << 10

// jsonWriter appends one JSON document in exactly the bytes encoding/json
// writes with a two-space indent (json.MarshalIndent(v, "", "  ") and a
// final newline), and passes them to w in chunks of about jsonChunk, so a
// document of any size costs one buffer, plus a float memo when the
// document is large. The export writers call it field by field, in
// struct-tag order, and apply omitempty themselves (the opt methods). The
// first write error sticks: later writes are dropped and end returns it.
type jsonWriter struct {
	w     io.Writer
	buf   []byte
	depth int
	// first is true until the innermost open object or array has an
	// element, so next knows whether to write a comma and close whether
	// the container is empty ({} and [] stay on one line).
	first bool
	err   error
	// memo maps a float's bits to the text float wrote for it, so each
	// distinct number of a large document is formatted about once; shift
	// turns a hash into a slot index. Nil for small documents.
	memo  []floatSlot
	shift uint
}

// floatSlot is one entry of the float memo: the bits of a float and the
// text float wrote for it. n is the text's length; 0 marks an empty slot,
// since every text has at least one byte. 32 bytes a slot.
type floatSlot struct {
	bits uint64
	n    uint8
	text [23]byte
}

// minMemoFloats is the smallest document, in floats, that gets a memo. A
// document of a few cells, each with a curve of its own, repeats few of
// its numbers: the small served documents, of 129 to 1,144 floats, hit a
// 2^10-slot memo 1–20% of the time and encode up to a fifth slower with it
// than without. The documents measured from 2,064 floats up hit their memo
// a third of the time or more and encode 10–38% faster with it.
const minMemoFloats = 1 << 11

// memoSlots sizes the float memo of a document holding floats numbers:
// none below minMemoFloats, else about one slot per 16 floats, a power of
// two clamped to [2^10, 2^16].
func memoSlots(floats int) int {
	if floats < minMemoFloats {
		return 0
	}
	return 1 << min(max(bits.Len(uint(floats))-4, 10), 16)
}

// newJSONWriter returns a writer for a document of about floats numbers,
// the count that sizes its float memo.
func newJSONWriter(w io.Writer, floats int) *jsonWriter {
	// The slack holds the element that crosses jsonChunk, so only a long
	// string grows the buffer.
	j := &jsonWriter{w: w, buf: make([]byte, 0, jsonChunk+1<<10)}
	if n := memoSlots(floats); n > 0 {
		j.memo = make([]floatSlot, n)
		j.shift = uint(64 - bits.Len(uint(n-1)))
	}
	return j
}

// slot returns the memo slot of a float with these bits. The index comes
// from the magnitude's bits (the sign is shifted out before a Fibonacci
// hash), so x and -x, 0 and -0 among them, share a slot, and only the full
// bits stored in it tell them apart.
func (j *jsonWriter) slot(b uint64) *floatSlot {
	return &j.memo[(b<<1)*0x9e3779b97f4a7c15>>j.shift]
}

func (j *jsonWriter) flush() {
	if j.err == nil {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// end terminates the document with a newline, as Encode does, and writes
// what is left.
func (j *jsonWriter) end() error {
	j.buf = append(j.buf, '\n')
	j.flush()
	return j.err
}

// newlineIndent covers the export documents' depth, at most 4: a number
// in a record's array.
const newlineIndent = "\n        "

func (j *jsonWriter) newline() {
	j.buf = append(j.buf, newlineIndent[:1+2*j.depth]...)
}

// next starts an element of the innermost open object or array on its own
// line, after a comma unless it is the first.
func (j *jsonWriter) next() {
	if len(j.buf) >= jsonChunk {
		j.flush()
	}
	if !j.first {
		j.buf = append(j.buf, ',')
	}
	j.first = false
	j.newline()
}

func (j *jsonWriter) open(c byte) {
	j.buf = append(j.buf, c)
	j.depth++
	j.first = true
}

func (j *jsonWriter) close(c byte) {
	j.depth--
	if !j.first {
		j.newline()
	}
	j.first = false
	j.buf = append(j.buf, c)
}

// key starts an object member; k is one of the export's own field names,
// which need no escaping.
func (j *jsonWriter) key(k string) {
	j.next()
	j.buf = append(j.buf, '"')
	j.buf = append(j.buf, k...)
	j.buf = append(j.buf, `": `...)
}

func (j *jsonWriter) null()       { j.buf = append(j.buf, "null"...) }
func (j *jsonWriter) bool(b bool) { j.buf = strconv.AppendBool(j.buf, b) }
func (j *jsonWriter) int(n int)   { j.buf = strconv.AppendInt(j.buf, int64(n), 10) }

// float writes x as encoding/json does. With a memo, a float whose bits
// are in its slot gets the stored text; any other is formatted and, when
// its text fits, stored in the slot right away, before next can flush the
// buffer the text sits in.
func (j *jsonWriter) float(x float64) {
	if j.memo == nil {
		j.format(x)
		return
	}
	b := math.Float64bits(x)
	s := j.slot(b)
	if s.n != 0 && s.bits == b {
		j.buf = append(j.buf, s.text[:s.n]...)
		return
	}
	start := len(j.buf)
	j.format(x)
	if n := len(j.buf) - start; n <= len(s.text) {
		s.bits, s.n = b, uint8(n)
		copy(s.text[:], j.buf[start:])
	}
}

// format appends x as encoding/json formats it (ES6 number formatting):
// shortest round-trip digits, exponent form outside [1e-6, 1e21), and no
// zero padding in a negative exponent. x is finite; the callers check
// before writing.
func (j *jsonWriter) format(x float64) {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.buf = strconv.AppendFloat(j.buf, x, format, -1, 64)
	if n := len(j.buf); format == 'e' && j.buf[n-4] == 'e' && j.buf[n-3] == '-' && j.buf[n-2] == '0' {
		j.buf[n-2] = j.buf[n-1]
		j.buf = j.buf[:n-1]
	}
}

// str writes s quoted. A string encoding/json would write as is is copied;
// any other goes through json.Marshal, so escaping stays encoding/json's.
func (j *jsonWriter) str(s string) {
	if !verbatimJSON(s) {
		// Marshalling a string cannot fail: invalid UTF-8 becomes U+FFFD.
		b, _ := json.Marshal(s)
		j.buf = append(j.buf, b...)
		return
	}
	j.buf = append(j.buf, '"')
	j.buf = append(j.buf, s...)
	j.buf = append(j.buf, '"')
}

// verbatimJSON reports whether encoding/json writes s unchanged between
// quotes: valid UTF-8 with no control byte, no '"' or '\', none of the HTML
// characters '<', '>' and '&' it escapes by default, and no U+2028 or
// U+2029.
func verbatimJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return utf8.ValidString(s) && !strings.ContainsRune(s, '\u2028') && !strings.ContainsRune(s, '\u2029')
}

// The opt methods write a member only when encoding/json's omitempty keeps
// it: a non-zero number (so -0 is omitted too), true, a non-empty string or
// a non-empty slice.

func (j *jsonWriter) optInt(k string, n int) {
	if n != 0 {
		j.key(k)
		j.int(n)
	}
}

func (j *jsonWriter) optFloat(k string, x float64) {
	if x != 0 {
		j.key(k)
		j.float(x)
	}
}

func (j *jsonWriter) optBool(k string, b bool) {
	if b {
		j.key(k)
		j.bool(b)
	}
}

func (j *jsonWriter) optStr(k, s string) {
	if s != "" {
		j.key(k)
		j.str(s)
	}
}

func (j *jsonWriter) optInts(k string, xs []int) {
	if len(xs) == 0 {
		return
	}
	j.key(k)
	j.open('[')
	for _, x := range xs {
		j.next()
		j.int(x)
	}
	j.close(']')
}

func (j *jsonWriter) optFloats(k string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	j.key(k)
	j.open('[')
	for _, x := range xs {
		j.next()
		j.float(x)
	}
	j.close(']')
}

// finite returns the error encoding/json gives for the first NaN or ±Inf
// among xs, or nil when every one is finite.
func finite(xs ...float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			_, err := json.Marshal(x)
			return err
		}
	}
	return nil
}
