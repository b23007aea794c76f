package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer.
type span struct {
	name       string
	op         uint64 // shared by the spans of one request
	id, parent int32  // parent -1 for a root
	start, end time.Time
	covered    time.Duration // time covered by child spans
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n     int
	total time.Duration
	self  time.Duration
}

// tracer records spans around the benchmark's calls into the
// program's layers. Each goroutine that records owns one tracer: spans
// nest on that goroutine, so a span's self time is its duration minus
// its children's, computed as each span ends. Every span feeds the
// per-name aggregates; the first keep spans are also retained and
// written out when the run ends. Recording allocates nothing once each
// name has been seen, so tracing does not disturb the allocation
// figures taken around the same calls. A nil tracer records nothing,
// which is how untraced runs and windows skip tracing.
type tracer struct {
	nextID int32
	stack  []span
	kept   []span
	stats  map[string]*layerStat
}

// newTracer returns a tracer retaining up to keep spans. Span IDs start
// at base, so the spans of tracers merged into one file stay distinct.
func newTracer(keep int, base int32) *tracer {
	return &tracer{
		nextID: base,
		stack:  make([]span, 0, 16),
		kept:   make([]span, 0, keep),
		stats:  map[string]*layerStat{},
	}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, op uint64) {
	if t == nil {
		return
	}
	s := span{name: name, op: op, id: t.nextID, parent: -1, start: time.Now()}
	t.nextID++
	if len(t.stack) > 0 {
		s.parent = t.stack[len(t.stack)-1].id
	}
	t.stack = append(t.stack, s)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s.end = time.Now()
	d := s.end.Sub(s.start)
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].covered += d
	}
	t.record(&s, d)
	return d
}

// interval records a span whose start and end were taken elsewhere,
// as a root: used where one request's span begins on one goroutine and
// ends on another (a stream item is sent by the feeder and acked to
// the consumer).
func (t *tracer) interval(name string, op uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{name: name, op: op, id: t.nextID, parent: -1, start: start, end: end}
	t.nextID++
	t.record(&s, end.Sub(start))
}

func (t *tracer) record(s *span, d time.Duration) {
	st := t.stats[s.name]
	if st == nil {
		st = &layerStat{}
		t.stats[s.name] = st
	}
	st.n++
	st.total += d
	st.self += d - s.covered
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, *s)
	}
}

// merge folds another goroutine's tracer into t once both are done.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	for name, ost := range o.stats {
		st := t.stats[name]
		if st == nil {
			st = &layerStat{}
			t.stats[name] = st
		}
		st.n += ost.n
		st.total += ost.total
		st.self += ost.self
	}
	for _, s := range o.kept {
		if len(t.kept) == cap(t.kept) {
			break
		}
		t.kept = append(t.kept, s)
	}
}

// meanUS returns the mean duration of the spans named name.
func (t *tracer) meanUS(name string) float64 {
	if t == nil || t.stats[name] == nil || t.stats[name].n == 0 {
		return 0
	}
	st := t.stats[name]
	return float64(st.total.Nanoseconds()) / 1e3 / float64(st.n)
}

// selfByLayer sums self time per layer, the span name's first
// dot-separated component.
func (t *tracer) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	for name, st := range t.stats {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.self
	}
	return out
}

// write saves the retained spans as JSON lines: name, op, id, parent,
// start and end in microseconds from the first retained span, and
// self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(t.kept) > 0 {
		t0 = t.kept[0].start
	}
	for _, s := range t.kept {
		fmt.Fprintf(w, `{"name":%q,"op":%d,"id":%d,"parent":%d,"start_us":%.3f,"end_us":%.3f,"self_us":%.3f}`+"\n",
			s.name, s.op, s.id, s.parent,
			float64(s.start.Sub(t0).Nanoseconds())/1e3, float64(s.end.Sub(t0).Nanoseconds())/1e3,
			float64((s.end.Sub(s.start)-s.covered).Nanoseconds())/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders the per-name aggregates, sorted by self time.
func (t *tracer) summary() []string {
	if t == nil {
		return nil
	}
	names := make([]string, 0, len(t.stats))
	for name := range t.stats {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return t.stats[names[i]].self > t.stats[names[j]].self })
	var out []string
	for _, name := range names {
		st := t.stats[name]
		out = append(out, fmt.Sprintf("span %-22s n=%-9d total=%-12s self=%-12s mean=%.1fus",
			name, st.n, st.total.Round(time.Microsecond), st.self.Round(time.Microsecond),
			float64(st.total.Nanoseconds())/1e3/float64(st.n)))
	}
	return out
}
