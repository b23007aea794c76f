package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"entityid"
	"entityid/internal/datagen"
	"entityid/internal/relation"
)

// target is one preloaded tuple the reader looks up by key.
type target struct {
	src, idx int
	t        entityid.Tuple
}

// The serving mix beside the writer's rate: the reader looks keys up
// with Zipf popularity, the key of rank r drawn with weight
// (zipfV+r)^-zipfS (zipfV spreads the head over many keys, so the mix
// does not hinge on the few clusters one seed makes most popular), and
// calls Merged on one read in mergeEvery; one write in dupEvery is a
// duplicate key that must be rejected.
const (
	zipfS      = 1.1
	zipfV      = 100
	mergeEvery = 10
	dupEvery   = 20
)

// writeStream yields the writer's inserts in a fixed order from the
// seed: the tuples held back from the preload (some of them match
// entities already present, the rest are fresh), then synthetic
// singletons once those run out, with one in dupEvery replaced by a
// duplicate of a preloaded key, which the hub must reject.
type writeStream struct {
	held    []item
	preload [][]entityid.Tuple
	rng     *rand.Rand
	n, next int
	synth   int
}

func (g *writeStream) nextWrite() (src int, t entityid.Tuple, dup bool) {
	g.n++
	if g.n%dupEvery == 0 {
		src = g.rng.Intn(len(g.preload))
		orig := g.preload[src][g.rng.Intn(len(g.preload[src]))]
		t = fresh(orig)
		t[len(t)-1] = entityid.String(fmt.Sprintf("555-%04d", g.n%10000))
		return src, t, true
	}
	if g.next < len(g.held) {
		it := g.held[g.next]
		g.next++
		return it.src, fresh(it.t), false
	}
	g.synth++
	src = g.synth % len(g.preload)
	return src, entityid.Tuple{
		entityid.String(fmt.Sprintf("extra-%d", g.synth)),
		entityid.String(fmt.Sprintf("%d extra st", g.synth)),
		entityid.Null, entityid.Null,
	}, false
}

// serveState is what one serving phase shares with the next.
type serveState struct {
	h         *entityid.Hub
	names     []string
	targets   []target
	zipf      *rand.Zipf
	gen       *writeStream
	committed [][]entityid.Tuple
	// Latency histograms over every phase: reads, writes (from their
	// due time) and how late the writer issued them.
	reads, writes, late hist
	// windowRates and windowCPU hold, for each whole second of reading,
	// the reads per second and the process CPU time per read; the
	// figures are their medians, so a few slow seconds on a shared
	// machine do not move them.
	windowRates, windowCPU []float64
	nReads                 int
}

// runServe is the serving workload: a durable hub preloaded during
// set-up, then one closed-loop reader (Lookup by Zipf-popular key, one
// read in mergeEvery also Merged) beside one open-loop writer issuing
// single Inserts at a fixed rate. serve-k2 runs it on the memory
// backend, disk-k4 on the disk backend with hot budgets below the
// working set.
func runServe(b *bench) error {
	wl := b.wl
	var w *datagen.MultiWorkload
	var held []item
	var preload [][]entityid.Tuple
	var h *entityid.Hub
	var dir string
	closeHub := func() error {
		err := h.Close()
		h = nil
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	// Set-up: generate, hold a tenth of the tuples back for the
	// writer, open the durable hub seeded with the rest, link every
	// pair, checkpoint.
	if err := b.timeSetup(func() (func() error, error) {
		var err error
		if w, err = generate(wl.k, b.entities(wl.entities), b.seed); err != nil {
			return nil, err
		}
		all := shuffled(w, rand.New(rand.NewSource(b.seed)))
		held = all[:len(all)/10]
		preload = make([][]entityid.Tuple, wl.k)
		rels := make([]*relation.Relation, wl.k)
		for k := range rels {
			rels[k] = relation.New(w.Relations[k].Schema())
		}
		for _, it := range all[len(all)/10:] {
			preload[it.src] = append(preload[it.src], it.t)
			if err := rels[it.src].Insert(fresh(it.t)); err != nil {
				return nil, err
			}
		}
		if dir, err = b.dir("serve"); err != nil {
			return nil, err
		}
		if h, err = openHub(dir, wl); err != nil {
			return nil, err
		}
		if err := register(h, w, rels); err != nil {
			return closeHub, err
		}
		return closeHub, h.Checkpoint()
	}); err != nil {
		return err
	}

	s := &serveState{h: h, names: w.Names, committed: make([][]entityid.Tuple, wl.k)}
	for k := range preload {
		s.committed[k] = append([]entityid.Tuple(nil), preload[k]...)
		for i, t := range preload[k] {
			s.targets = append(s.targets, target{k, i, t})
		}
	}
	rng := rand.New(rand.NewSource(b.seed + 2))
	// Popularity rank is independent of position: shuffle, then Zipf
	// over the shuffled order.
	rng.Shuffle(len(s.targets), func(i, j int) { s.targets[i], s.targets[j] = s.targets[j], s.targets[i] })
	s.zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(len(s.targets)-1))
	s.gen = &writeStream{held: held, preload: preload, rng: rand.New(rand.NewSource(b.seed + 3))}

	if b.trace {
		// First half untraced (for the tracing overhead), second half
		// traced, with the counter deltas taken around it.
		untraced := s.phase(b, b.seconds/2, nil)
		sc0 := takeScrape()
		tracedRate := s.phase(b, b.seconds/2, b.tr)
		sc1 := takeScrape()
		layerCounters(b, sc0, sc1)
		b.set("hub.lookup_us", b.tr.meanUS("hub.Lookup"))
		b.set("hub.merged_us", b.tr.meanUS("hub.Merged"))
		b.set("bench.trace_overhead", tracedRate/untraced)
		b.set("bench.gen_lateness_p99_us", s.late.quantile(0.99)/1e3)
		b.note("untraced phase %.0f reads/s, traced phase %.0f reads/s", untraced, tracedRate)
		s.allocProbes(b)
		if err := probeLayers(b, w); err != nil {
			return err
		}
	} else {
		s.phase(b, b.seconds, nil)
	}

	readsPerS := median(s.windowRates)
	b.set("cpu_us_per_op", median(s.windowCPU))
	b.noteOpTiming("read latency", &s.reads)
	rt, wt := s.reads.timing(), s.writes.timing()
	b.note("reads_per_s %.1f reads/s (median of %d one-second windows; %d reads)", readsPerS, len(s.windowRates), s.nReads)
	b.note("cpu_us_per_op %.3f us of process CPU per read, writer and background work included", median(s.windowCPU))
	b.note("read_p50_us %.2f us, read_p%s_us %.2f us (n=%d)", rt.p50/1e3, fmtQ(rt.tailQ), rt.tail/1e3, rt.n)
	b.note("write_p50_us %.2f us, write_p%s_us %.2f us (n=%d, timed from the due time)", wt.p50/1e3, fmtQ(wt.tailQ), wt.tail/1e3, wt.n)
	lt := s.late.timing()
	b.note("writer lateness: p50 %.1fus p%s %.1fus (n=%d)", lt.p50/1e3, fmtQ(lt.tailQ), lt.tail/1e3, lt.n)

	// Output checks, outside every timed window: the final partition
	// equals the batch recomputation over the acked tuples.
	got := partition(h)
	want, err := batchPartition(w, s.committed)
	if err != nil {
		return err
	}
	b.check(samePartition(got, want))
	entries, multi := 0, 0
	for _, line := range got {
		if n := strings.Count(line, " "); n > 1 {
			entries += n
			multi++
		}
	}
	if wl.backend == "disk" {
		si := h.StoreInfo()
		b.note("store %s: %d hot / %d cold cluster records, %d hot entries of budget %d; %d hot pairs of budget %d; working set %d entries in %d multi-member clusters",
			si.Backend, si.Clusters.HotRecords, si.Clusters.ColdRecords, si.Clusters.HotEntries, si.Clusters.Budget,
			si.HotPairs, si.PairBudget, entries, multi)
	}

	tuples, user := 0, int64(0)
	for k, ts := range s.committed {
		tuples += len(ts)
		for _, t := range ts {
			user += userBytes(w.Names[k], t)
		}
	}
	if err := h.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.h = nil
	heap, sb, err := quiescent(dir, func() error {
		err := h.Close()
		h = nil
		return err
	})
	if err != nil {
		return err
	}
	b.set("heap_bytes_per_tuple", heap/float64(tuples))
	b.set("stored_bytes_per_user_byte", float64(sb)/float64(user))
	b.note("heap_bytes_per_tuple %.1f B over %d tuples; stored_bytes_per_user_byte %.4f ratio", heap/float64(tuples), tuples, float64(sb)/float64(user))
	if b.trace {
		if err := probeReplay(b, dir); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// phase runs the reader and the writer side by side for d and returns
// the reads per second it achieved.
func (s *serveState) phase(b *bench, d time.Duration, tr *tracer) float64 {
	wl := b.wl
	start := time.Now()
	deadline := start.Add(d)
	var wc checks
	var wtr *tracer
	if tr != nil {
		wtr = b.newTracer()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / wl.writeRate))
			if !due.Before(deadline) {
				return
			}
			src, t, dup := s.gen.nextWrite()
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			s.late.add(time.Since(due))
			wtr.begin("serve.write", uint64(i))
			wtr.begin("hub.Insert", uint64(i))
			rec, err := s.h.Insert(s.names[src], t)
			wtr.end()
			wtr.end()
			s.writes.add(time.Since(due))
			s.checkWrite(&wc, src, t, dup, rec, err)
		}
	}()
	n := s.readLoop(b, deadline, 0, tr, &s.reads)
	elapsed := time.Since(start)
	wg.Wait()
	b.absorb(&wc)
	b.tr.merge(wtr)
	s.nReads += n
	return float64(n) / elapsed.Seconds()
}

// readLoop issues closed-loop reads until the deadline (or, with a
// zero deadline, count reads), timing each Lookup (+Merged) and
// checking each answer after its clock stops.
func (s *serveState) readLoop(b *bench, deadline time.Time, count int, tr *tracer, lat *hist) int {
	n, winN := 0, 0
	winStart, winCPU := time.Now(), cpuTime()
	closeWindow := func(now time.Time) {
		cpu := cpuTime()
		s.windowRates = append(s.windowRates, float64(n-winN)/now.Sub(winStart).Seconds())
		s.windowCPU = append(s.windowCPU, float64((cpu-winCPU).Nanoseconds())/1e3/float64(n-winN))
		winStart, winCPU, winN = now, cpu, n
	}
	for ; count == 0 || n < count; n++ {
		t0 := time.Now()
		if count == 0 {
			if !t0.Before(deadline) {
				break
			}
			if t0.Sub(winStart) >= time.Second {
				closeWindow(t0)
			}
		}
		tg := s.targets[s.zipf.Uint64()]
		op := uint64(n)
		tr.begin("serve.read", op)
		tr.begin("hub.Lookup", op)
		cl, err := s.h.Lookup(s.names[tg.src], tg.t[0], tg.t[1])
		tr.end()
		merged := false
		var merr error
		if err == nil && n%mergeEvery == 0 {
			tr.begin("hub.Merged", op)
			var m *entityid.MergedEntity
			m, merr = s.h.Merged(cl, entityid.MergeCoalesce)
			tr.end()
			merged = merr == nil && m.Values["name"].Str() == tg.t[0].Str()
		}
		tr.end()
		if lat != nil {
			lat.add(time.Since(t0))
		}
		switch {
		case err != nil:
			b.check(fmt.Errorf("lookup %s %v: %w", s.names[tg.src], tg.t[:2], err))
		case merr != nil:
			b.check(fmt.Errorf("merged %s: %w", cl.ID, merr))
		case n%mergeEvery == 0 && !merged:
			b.check(fmt.Errorf("merged %s lacks the name %v", cl.ID, tg.t[0]))
		default:
			b.check(checkCluster(cl, s.names[tg.src], tg.idx, tg.t))
		}
	}
	// The last, partial window counts when it is long enough to be a
	// fair sample, or when the phase had no whole second.
	if now := time.Now(); count == 0 && n > winN && (now.Sub(winStart) >= time.Second/2 || len(s.windowRates) == 0) {
		closeWindow(now)
	}
	return n
}

// allocProbes counts allocations per read and per write with the
// other side idle: a fixed number of reads, then a fixed number of
// writes drawn from the write stream (whose commits join the oracle).
func (s *serveState) allocProbes(b *bench) {
	const reads, writes = 20000, 200
	a0 := readAllocs()
	s.readLoop(b, time.Time{}, reads, nil, nil)
	allocs, bytes := a0.perOp(reads)
	b.set("hub.read.allocs_per_op", allocs)
	b.set("hub.read.bytes_per_op", bytes)

	// Per-write medians: a background snapshot the writes trigger
	// allocates on its own goroutine, and the process-wide counters
	// would charge it to whichever write it overlapped.
	var perAllocs, perBytes []float64
	for i := 0; i < writes; i++ {
		src, t, dup := s.gen.nextWrite()
		a0 := readAllocs()
		rec, err := s.h.Insert(s.names[src], t)
		allocs, bytes := a0.perOp(1)
		perAllocs = append(perAllocs, allocs)
		perBytes = append(perBytes, bytes)
		s.checkWrite(&b.checks, src, t, dup, rec, err)
	}
	b.set("hub.insert.allocs_per_op", median(perAllocs))
	b.set("hub.insert.bytes_per_op", median(perBytes))
}

// checkWrite checks one write's outcome: a duplicate key must be
// rejected, any other tuple committed at the next position of its
// source, where the final oracle then expects it. The oracle keeps its
// own copy: the hub stores only a shallow copy of the tuple it was
// given, so keeping t would keep the hub's strings alive after Close
// and hide them from the memory figures.
func (s *serveState) checkWrite(c *checks, src int, t entityid.Tuple, dup bool, rec *entityid.HubReceipt, err error) {
	switch {
	case dup && err == nil:
		c.check(fmt.Errorf("duplicate key %v accepted into %s", t[:2], s.names[src]))
	case dup:
		c.check(nil)
	case err != nil:
		c.check(fmt.Errorf("insert %s %v: %w", s.names[src], t, err))
	case rec.Index != len(s.committed[src]):
		c.check(fmt.Errorf("insert %s committed at %d, want %d", s.names[src], rec.Index, len(s.committed[src])))
	default:
		c.check(nil)
		s.committed[src] = append(s.committed[src], fresh(t))
	}
}
