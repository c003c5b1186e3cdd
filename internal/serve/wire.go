package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/adwise-go/adwise/internal/graph"
)

// The /v1/edges wire codec. Requests are parsed by hand against a strict
// grammar (RFC 5234 ABNF; %s marks a case-sensitive string):
//
//	body = ws "{" ws %x22 %s"edges" %x22 ws ":" ws "[" ws [ pair *( ws "," ws pair ) ] ws "]" ws "}" ws
//	pair = "[" ws uint ws "," ws uint ws "]"
//	uint = "0" / %x31-39 *DIGIT          ; value <= 4294967295
//	ws   = *( %x20 / %x09 / %x0A / %x0D )
//
// Every body the grammar accepts decodes to the same edges under
// encoding/json (wire_test.go keeps that decoder as the oracle). The
// grammar is narrower: it rejects other spellings of the key, null in
// place of a pair or a number, pairs of other than two numbers, a repeated
// key, and any non-whitespace byte after the object.

// jsonContentType is the batch response's Content-Type header value,
// assigned directly because Header().Set allocates a slice per call.
var jsonContentType = []string{"application/json"}

// maxPooledBody is the largest body buffer a batch scratch may keep when
// it returns to the pool, so one maximal batch does not pin megabytes for
// the life of the process (the rule fmt's printer pool uses).
const maxPooledBody = 64 << 10

// batchScratch is one /v1/edges request's reusable buffers.
type batchScratch struct {
	body  []byte
	edges []graph.Edge
	parts []int32
	out   []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns sc to the pool unless its body buffer outgrew the
// retention cap.
func (sc *batchScratch) release() {
	if cap(sc.body) <= maxPooledBody {
		batchScratchPool.Put(sc)
	}
}

// handleEdgeBatch answers a batch lookup and reports how many edges it
// resolved (0 on any rejection), so instrumented handlers can meter
// lookup throughput rather than just request counts.
func handleEdgeBatch(w http.ResponseWriter, r *http.Request, ix *Index) int {
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	var err error
	// MaxBytesReader also makes the server close the connection once the
	// cap is hit, instead of draining an oversized body.
	if sc.body, err = readBody(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes), sc.body); err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return 0
	}
	if sc.edges, err = decodeBatch(sc.body, sc.edges); err != nil {
		writeError(w, http.StatusBadRequest, "decoding body: "+err.Error())
		return 0
	}
	if len(sc.edges) == 0 {
		writeError(w, http.StatusBadRequest, "empty edge batch")
		return 0
	}
	sc.parts = ix.PartitionBatch(sc.edges, sc.parts)
	sc.out = appendPartitions(sc.out[:0], sc.parts)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out)
	return len(sc.edges)
}

// readBody reads r to EOF into buf's storage, growing it as needed.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBatch parses a /v1/edges body under the grammar above into
// edges[:0] and returns the filled slice. It rejects the body as soon as
// a pair beyond MaxBatch is parsed. An empty edge list is grammatical;
// the caller rejects it.
func decodeBatch(b []byte, edges []graph.Edge) ([]graph.Edge, error) {
	edges = edges[:0]
	i, ok := token(b, 0, '{')
	if !ok {
		return edges, syntaxError(b, i, `"{"`)
	}
	if i = skipWS(b, i); len(b)-i < len(edgesKey) || string(b[i:i+len(edgesKey)]) != edgesKey {
		return edges, syntaxError(b, i, `the key "edges"`)
	}
	if i, ok = token(b, i+len(edgesKey), ':'); !ok {
		return edges, syntaxError(b, i, `":"`)
	}
	if i, ok = token(b, i, '['); !ok {
		return edges, syntaxError(b, i, `"["`)
	}
	if j, empty := token(b, i, ']'); empty {
		i = j
	} else {
		for {
			var src, dst uint32
			if i, ok = token(b, i, '['); !ok {
				return edges, syntaxError(b, i, `"["`)
			}
			if src, i, ok = scanUint(b, skipWS(b, i)); !ok {
				return edges, syntaxError(b, i, "an integer in [0, 4294967295]")
			}
			if i, ok = token(b, i, ','); !ok {
				return edges, syntaxError(b, i, `","`)
			}
			if dst, i, ok = scanUint(b, skipWS(b, i)); !ok {
				return edges, syntaxError(b, i, "an integer in [0, 4294967295]")
			}
			if i, ok = token(b, i, ']'); !ok {
				return edges, syntaxError(b, i, `"]"`)
			}
			if len(edges) == MaxBatch {
				return edges, fmt.Errorf("batch exceeds the %d-edge cap", MaxBatch)
			}
			edges = append(edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
			if i, ok = token(b, i, ','); !ok {
				break
			}
		}
		if i, ok = token(b, i, ']'); !ok {
			return edges, syntaxError(b, i, `"," or "]"`)
		}
	}
	if i, ok = token(b, i, '}'); !ok {
		return edges, syntaxError(b, i, `"}"`)
	}
	if i = skipWS(b, i); i != len(b) {
		return edges, syntaxError(b, i, "the end of the body")
	}
	return edges, nil
}

// edgesKey is the request's one key, quotes included.
const edgesKey = `"edges"`

// syntaxError reports what the decoder wanted at offset i of b, quoting
// up to 16 bytes found there.
func syntaxError(b []byte, i int, want string) error {
	if i >= len(b) {
		return fmt.Errorf("unexpected end of body at offset %d, want %s", i, want)
	}
	return fmt.Errorf("unexpected %q at offset %d, want %s", b[i:min(i+16, len(b))], i, want)
}

// token skips whitespace from i and consumes the byte c. It returns the
// offset after c, or the offset of the mismatch and false.
//
//adwise:zeroalloc
func token(b []byte, i int, c byte) (int, bool) {
	i = skipWS(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// skipWS returns the offset of the first non-whitespace byte at or after
// i (len(b) if none).
//
//adwise:zeroalloc
func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanUint parses the grammar's uint at b[i:]: "0" or a non-zero digit
// followed by digits, at most 4294967295, and not followed by a fraction
// or an exponent. It returns the value and the offset after it, or the
// offset of the number and false.
//
//adwise:zeroalloc
func scanUint(b []byte, i int) (uint32, int, bool) {
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	// More than 10 digits is out of range, and v may have wrapped.
	if n := i - start; n == 0 || n > 10 || v > math.MaxUint32 || n > 1 && b[start] == '0' {
		return 0, start, false
	}
	if i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e') {
		return 0, start, false
	}
	return uint32(v), i, true
}

// appendPartitions appends the /v1/edges success body to dst: byte for
// byte what json.NewEncoder(w).Encode(map[string]any{"partitions": parts})
// writes for a non-nil parts, trailing newline included.
func appendPartitions(dst []byte, parts []int32) []byte {
	dst = append(dst, `{"partitions":[`...)
	for i, p := range parts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	return append(dst, "]}\n"...)
}
