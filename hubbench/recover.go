package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"entityid"
	"entityid/internal/datagen"
)

// runRecover is the restart workload. Set-up writes a durable hub whose
// directory holds a snapshot plus a write-ahead-log tail of wl.tail
// inserts; the timed operation is OpenHub followed by Close of that
// directory, repeated. Each reopened hub must report the state the
// hub had before it was closed.
func runRecover(b *bench) error {
	wl := b.wl
	var w *datagen.MultiWorkload
	var dir string
	var want entityid.HubStats
	var wantFP uint64
	var user int64
	tail := 0
	if err := b.timeSetup(func() (func() error, error) {
		var err error
		if w, err = generate(wl.k, b.entities(wl.entities), b.seed); err != nil {
			return nil, err
		}
		items := shuffled(w, rand.New(rand.NewSource(b.seed)))
		tail = min(wl.tail, len(items)/4)
		body := items[:len(items)-tail]
		user = 0
		for _, it := range items {
			user += userBytes(w.Names[it.src], it.t)
		}
		if dir, err = b.dir("recover"); err != nil {
			return nil, err
		}
		cleanup := func() error { return os.RemoveAll(dir) }
		h, err := openHub(dir, wl)
		if err != nil {
			return nil, err
		}
		if err := register(h, w, nil); err != nil {
			h.Close()
			return cleanup, err
		}
		batch := make([]entityid.HubInsert, len(body))
		for i, it := range body {
			batch[i] = entityid.HubInsert{Source: w.Names[it.src], Tuple: fresh(it.t)}
		}
		if _, err := streamOnce(b, h, batch, &hist{}, nil, 0); err != nil {
			h.Close()
			return cleanup, err
		}
		if err := h.Checkpoint(); err != nil {
			h.Close()
			return cleanup, err
		}
		if err := h.Close(); err != nil {
			return cleanup, err
		}
		// The tail goes in through a fresh session, whose snapshot
		// counter starts at zero, so exactly the tail stays in the log.
		if h, err = openHub(dir, wl); err != nil {
			return cleanup, err
		}
		for _, it := range items[len(items)-tail:] {
			_, err := h.Insert(w.Names[it.src], fresh(it.t))
			b.check(err)
		}
		want, wantFP = h.Stats(), fingerprint(partition(h))
		return cleanup, h.Close()
	}); err != nil {
		return err
	}

	var opens, tracedOpens hist
	var busy, tracedBusy time.Duration
	var cpus []float64
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < b.seconds || (b.trace && tracedOpens.n == 0); i++ {
		traced := b.trace && time.Since(start) >= b.seconds/2 && i >= 1
		var tr *tracer
		if traced {
			tr = b.tr
		}
		d, cpu, err := reopen(b, dir, tr, uint64(i), want, wantFP, tail)
		if err != nil {
			return err
		}
		if traced {
			tracedOpens.add(d)
			tracedBusy += d
		} else {
			opens.add(d)
			busy += d
			cpus = append(cpus, float64(cpu.Nanoseconds())/1e3)
		}
	}
	rate := float64(opens.n) / busy.Seconds()
	b.set("cpu_us_per_op", median(cpus))
	b.noteOpTiming("open+close latency (untraced)", &opens)
	t := opens.timing()
	b.note("open_p50_ms %.4f ms (n=%d); %.2f restarts/s; cpu_us_per_op %.0f us per restart", t.p50/1e6, t.n, rate, median(cpus))

	// Memory of the recovered hub and size of its directory.
	h, err := openHub(dir, wl)
	if err != nil {
		return err
	}
	heap, sb, err := quiescent(dir, func() error {
		err := h.Close()
		h = nil
		return err
	})
	if err != nil {
		return err
	}
	b.set("heap_bytes_per_tuple", heap/float64(want.Tuples))
	b.set("stored_bytes_per_user_byte", float64(sb)/float64(user))
	b.note("recovered hub: %d tuples, %d clusters, %d pair matches; %d-record log tail; heap %.1f B/tuple; %d bytes on disk",
		want.Tuples, want.Clusters, want.Matches, tail, heap/float64(want.Tuples), sb)

	if b.trace {
		b.set("hub.open_ms", b.tr.meanUS("hub.OpenHub")/1e3)
		b.set("bench.trace_overhead", float64(tracedOpens.n)/tracedBusy.Seconds()/rate)
		if err := probeReplay(b, dir); err != nil {
			return err
		}
		if err := probeLayers(b, w); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// reopen opens the directory, checks the recovered state outside the
// clock, closes it, and returns the wall and CPU time spent in OpenHub
// and Close.
func reopen(b *bench, dir string, tr *tracer, op uint64, want entityid.HubStats, wantFP uint64, tail int) (time.Duration, time.Duration, error) {
	t0, c0 := time.Now(), cpuTime()
	tr.begin("hub.OpenHub", op)
	h, err := openHub(dir, b.wl)
	tr.end()
	opened, openCPU := time.Since(t0), cpuTime()-c0
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	ri := h.Recovery()
	switch st := h.Stats(); {
	case ri == nil || !ri.FromSnapshot || ri.Replayed != tail || ri.TailDamage != "":
		b.check(fmt.Errorf("reopen %d: recovery %+v, want a snapshot plus %d replayed records", op, ri, tail))
	case st != want:
		b.check(fmt.Errorf("reopen %d: stats %+v, before close %+v", op, st, want))
	case fingerprint(partition(h)) != wantFP:
		b.check(fmt.Errorf("reopen %d: partition differs from the one before close", op))
	default:
		b.check(nil)
	}
	t1, c1 := time.Now(), cpuTime()
	tr.begin("hub.Close", op)
	err = h.Close()
	tr.end()
	if err != nil {
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	return opened + time.Since(t1), openCPU + cpuTime() - c1, nil
}
