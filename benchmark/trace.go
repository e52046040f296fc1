package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around its calls into each layer; parent is the
// span that was open when this one began (0 = none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Trial    int    `json:"trial"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Ops      int64  `json:"ops"`
}

// tracer keeps spans in memory; nothing is written until the run ends. A
// nil *tracer is the untraced run: every method is a no-op, so workloads
// call it unconditionally.
type tracer struct {
	workload string
	trial    int
	origin   time.Time
	spans    []span
	open     []int // indexes into spans of the currently open spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span named layer.name under the innermost open span.
func (t *tracer) begin(layer, name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Trial: t.trial,
		Layer: layer, Name: name, StartNs: int64(time.Since(t.origin)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span, crediting it with ops operations.
func (t *tracer) end(ops int64) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = int64(time.Since(t.origin))
	t.spans[i].Ops = ops
}

// selfTimes returns each span's self time by ID: its duration minus the part
// of its interval that its direct children cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// rung is a layer's total over a traced run: self time and operations of
// every span with that layer.name.
type rung struct {
	ns  int64
	ops int64
}

// perOp is the rung's self time per operation (0 when the layer did no
// work on this workload).
func (r rung) perOp() float64 {
	if r.ops == 0 {
		return 0
	}
	return float64(r.ns) / float64(r.ops)
}

// rungs sums self time and ops by "layer.name".
func (t *tracer) rungs() map[string]rung {
	out := map[string]rung{}
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		key := s.Layer + "." + s.Name
		r := out[key]
		r.ns += self[s.ID]
		r.ops += s.Ops
		out[key] = r
	}
	return out
}

// write stores the spans as JSON lines under dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
