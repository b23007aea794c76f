package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"entityid"
	"entityid/internal/datagen"
)

// runIngest is the bulk-load workload: the seeded, shuffled K-source
// stream goes through one IngestStream into a fresh durable hub, fed
// by one closed-loop feeder bounded by the stream's window. Rounds
// repeat until the window is spent; each round is checked against the
// batch oracle.
func runIngest(b *bench) error {
	wl := b.wl
	var w *datagen.MultiWorkload
	var items []item
	var user int64
	var h *entityid.Hub
	var dir string
	open := func() error {
		var err error
		if dir, err = b.dir("ingest"); err != nil {
			return err
		}
		if h, err = openHub(dir, wl); err != nil {
			return err
		}
		return register(h, w, nil)
	}
	closeHub := func() error {
		err := h.Close()
		h = nil
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	// Set-up: generate the inputs, open an empty durable hub, register
	// the sources and link every pair.
	if err := b.timeSetup(func() (func() error, error) {
		var err error
		if w, err = generate(wl.k, b.entities(wl.entities), b.seed); err != nil {
			return nil, err
		}
		items = shuffled(w, rand.New(rand.NewSource(b.seed)))
		user = 0
		for _, it := range items {
			user += userBytes(w.Names[it.src], it.t)
		}
		return closeHub, open()
	}); err != nil {
		return err
	}
	// Every round commits the same stream in the same order, so every
	// round's partition must equal the first round's, which must equal
	// the batch recomputation.
	committed := make([][]entityid.Tuple, len(w.Names))
	for _, it := range items {
		committed[it.src] = append(committed[it.src], it.t)
	}
	want, err := batchPartition(w, committed)
	if err != nil {
		return err
	}
	wantFP := fingerprint(want)

	// Per untraced round: throughput, CPU time per tuple, ack p50 and
	// tail, live heap per tuple and stored bytes per user byte. The reported figures are
	// medians over rounds, so a slow stretch of a shared machine moves
	// one round, not the run.
	var rates, roundCPU, roundP50, roundTail, heaps, stored []float64
	// Traced rounds: throughput, allocations and acks.
	var tracedRates, insAllocs, insBytes []float64
	var tracedAcks hist
	var sc0 scrape
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < b.seconds || (b.trace && len(tracedRates) == 0); round++ {
		if h == nil {
			if err := open(); err != nil {
				return err
			}
		}
		// A traced run measures its first half untraced, for the
		// tracing overhead, and traces the second half.
		traced := b.trace && time.Since(start) >= b.seconds/2 && round >= 1
		var tr *tracer
		if traced {
			tr = b.tr
			if sc0 == nil {
				sc0 = takeScrape()
			}
		}
		batch := make([]entityid.HubInsert, len(items))
		for i, it := range items {
			batch[i] = entityid.HubInsert{Source: w.Names[it.src], Tuple: fresh(it.t)}
		}
		var acks hist
		a0, c0 := readAllocs(), cpuTime()
		elapsed, err := streamOnce(b, h, batch, &acks, tr, uint64(round))
		if err != nil {
			return err
		}
		cpu := float64((cpuTime() - c0).Nanoseconds()) / 1e3 / float64(len(items))
		batch = nil
		rate := float64(len(items)) / elapsed.Seconds()
		if traced {
			allocs, bytes := a0.perOp(len(items))
			insAllocs = append(insAllocs, allocs)
			insBytes = append(insBytes, bytes)
			tracedRates = append(tracedRates, rate)
			tracedAcks.merge(&acks)
		} else {
			rates = append(rates, rate)
			roundCPU = append(roundCPU, cpu)
			roundP50 = append(roundP50, acks.quantile(0.5)/1e3)
			roundTail = append(roundTail, acks.quantile(tailQ(acks.n))/1e3)
		}
		if st := h.Stats(); st.Tuples != len(items) {
			b.check(fmt.Errorf("round %d: hub holds %d tuples, %d were acked", round, st.Tuples, len(items)))
		}
		p := partition(h)
		if fingerprint(p) != wantFP {
			b.check(fmt.Errorf("round %d: incremental partition differs from batch: %v", round, samePartition(p, want)))
		} else {
			b.check(nil)
		}
		tr.begin("hub.Checkpoint", 0)
		err = h.Checkpoint()
		tr.end()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		heap, sb, err := quiescent(dir, func() error {
			if err := h.Close(); err != nil {
				return err
			}
			h = nil
			return nil
		})
		if err != nil {
			return err
		}
		heaps = append(heaps, heap/float64(len(items)))
		stored = append(stored, float64(sb)/float64(user))
		if b.trace && round == 0 {
			if err := probeReplay(b, dir); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.set("cpu_us_per_op", median(roundCPU))
	b.set("heap_bytes_per_tuple", median(heaps))
	b.set("stored_bytes_per_user_byte", median(stored))
	b.note("cpu_us_per_op %.2f us per tuple (rounds: %s)", median(roundCPU), fmtList(roundCPU, "%.1f"))
	b.note("ingest_tuples_per_s %.1f tuples/s (median of %d rounds of %d tuples: %s)", median(rates), len(rates), len(items), fmtList(rates, "%.0f"))
	b.note("ack_p50_ms %.4f ms, ack_p%s_ms %.4f ms (medians over the rounds, %d acks each)",
		median(roundP50)/1e3, fmtQ(tailQ(uint64(len(items)))), median(roundTail)/1e3, len(items))
	b.note("heap_bytes_per_tuple %.1f B (rounds: %s)", median(heaps), fmtList(heaps, "%.0f"))
	b.note("stored_bytes_per_user_byte %.4f ratio (%d user bytes per round)", median(stored), user)

	if b.trace {
		sc1 := takeScrape()
		layerCounters(b, sc0, sc1)
		b.set("hub.insert.allocs_per_op", median(insAllocs))
		b.set("hub.insert.bytes_per_op", median(insBytes))
		commit := sc1.meanUS(sc0, "hub_ingest_commit_seconds", "")
		b.set("hub.pipeline_wait_us", tracedAcks.timing().mean/1e3-commit)
		b.set("bench.trace_overhead", median(tracedRates)/median(rates))
		b.note("traced rounds: %d, tuples/s %s", len(tracedRates), fmtList(tracedRates, "%.0f"))
		if err := probeLayers(b, w); err != nil {
			return err
		}
	}
	return nil
}

// streamOnce feeds one round through IngestStream and checks every
// ack: OK, in submission order. Each item's ack latency runs from the
// moment the feeder offered it to the stream to the moment its result
// arrived, so it includes the wait for stream credit.
func streamOnce(b *bench, h *entityid.Hub, batch []entityid.HubInsert, acks *hist, tr *tracer, round uint64) (time.Duration, error) {
	in := make(chan entityid.HubInsert)
	sent := make([]time.Time, len(batch))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := h.IngestStream(ctx, in, entityid.HubStreamOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		defer close(in)
		for i, it := range batch {
			sent[i] = time.Now()
			select {
			case in <- it:
			case <-ctx.Done():
				return
			}
		}
	}()
	next := 0
	for r := range results {
		now := time.Now()
		acks.add(now.Sub(sent[r.Seq]))
		tr.interval("hub.IngestStream.item", round<<32|uint64(r.Seq), sent[r.Seq], now)
		switch {
		case r.Seq != next:
			b.check(fmt.Errorf("ack %d arrived in place of %d", r.Seq, next))
		case r.Err != nil:
			b.check(fmt.Errorf("ack %d: %w", r.Seq, r.Err))
		default:
			b.check(nil)
		}
		next = r.Seq + 1
	}
	elapsed := time.Since(start)
	cancel()
	wg.Wait()
	if next != len(batch) {
		return 0, fmt.Errorf("stream ended after %d of %d acks", next, len(batch))
	}
	return elapsed, nil
}

// quiescent measures a checkpointed hub at rest: the live heap it
// holds (after two collections, with and without the hub) and its data
// directory's size. closeHub must close the hub and drop every
// reference to it.
func quiescent(dir string, closeHub func() error) (heap float64, stored int64, err error) {
	with := liveHeap()
	if stored, err = dirBytes(dir); err != nil {
		return 0, 0, err
	}
	if err := closeHub(); err != nil {
		return 0, 0, err
	}
	return with - liveHeap(), stored, nil
}
