package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// served campaign request share req; parent links a span to the span that
// caused it (0 for none).
type span struct {
	name            string
	start, end      time.Time
	id, parent, req uint64
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent before it ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id uint64, name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, id: id, parent: parent, req: req})
}

// since records a span that started at start and ends now.
func (t *tracer) since(name string, parent, req uint64, start time.Time) {
	if t != nil {
		t.record(0, name, parent, req, start, time.Now())
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in ui.perfetto.dev. Each
// request gets its own track; spans outside any request share track 0.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}",
			name, s.req, micros(s.start.Sub(t.t0)), micros(s.end.Sub(s.start)), s.id, s.parent, s.req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuBuckets are the packages a CPU profile's samples are attributed to,
// by the package of each sample's leaf frame; everything else is "other".
// The first eight are packages under repro/internal.
var cpuBuckets = []string{"des", "simmpi", "simnet", "topo", "wavefront", "workload", "core", "campaign", "http_json", "runtime", "other"}

// bucketOf maps a fully qualified function name, e.g.
// "repro/internal/des.(*eventHeap).pop", to its cpuBuckets entry.
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, b := range cpuBuckets[:8] {
			if name == b {
				return b
			}
		}
	case pkg == "net/http" || pkg == "encoding/json" || strings.HasPrefix(pkg, "net/http/"):
		return "http_json"
	case pkg == "runtime":
		return "runtime"
	}
	return "other"
}

// cpuShares reads a gzipped pprof CPU profile and returns each bucket's
// share of the samples, attributed by leaf frame.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id → name string index
		leaf    = map[uint64]uint64{} // location id → leaf function id
		samples [][2]uint64           // (leaf location id, count)
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id (1), value (2)
			var locs, vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err == nil && len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, [2]uint64{locs[0], vals[0]})
			}
			return err
		case 4: // Location: id (1), line (4) whose first entry is the innermost frame
			var id, fn uint64
			seen := false
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen:
					seen = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leaf[id] = fn
			return err
		case 5: // Function: id (1), name (2)
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcs[leaf[s[0]]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[bucketOf(name)] += float64(s[1])
		total += float64(s[1])
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
