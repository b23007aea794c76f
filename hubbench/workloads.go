package main

import (
	"strings"

	"entityid"
)

// workload is one set of inputs and one traffic shape. BENCHMARK.json
// records the same parameters and the reason each workload exists.
type workload struct {
	name string
	// k is the number of sources; every pair of them is linked.
	k int
	// entities is the size of the generated real-world universe; each
	// source models each entity with probability 0.6.
	entities int
	// backend and its hot budgets (the disk backend's cluster-entry and
	// resident-pair caps; the memory backend ignores them).
	backend                     string
	hotClusterEntries, hotPairs int
	// writeRate is the serving mix's open-loop writer's Inserts per
	// second (see runServe for the rest of the mix).
	writeRate float64
	// tail is the number of inserts the recovery workload leaves in the
	// write-ahead log after its snapshot.
	tail int
	run  func(b *bench) error
}

var workloads = []*workload{
	{name: "ingest-k6", k: 6, entities: 2000, backend: "mem", run: runIngest},
	{name: "serve-k2", k: 2, entities: 20000, backend: "mem", writeRate: 200, run: runServe},
	{name: "recover-k4", k: 4, entities: 1200, backend: "mem", tail: 400, run: runRecover},
	{name: "disk-k4", k: 4, entities: 3000, backend: "disk", hotClusterEntries: 1024, hotPairs: 4,
		writeRate: 5, run: runServe},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, wl := range workloads {
		out = append(out, wl.name)
	}
	return out
}

// fresh deep-copies a tuple, strings included, the way the daemon's
// request decoding hands the hub tuples it then owns alone. The hub's
// memory figures therefore count every byte the hub keeps.
func fresh(t entityid.Tuple) entityid.Tuple {
	out := make(entityid.Tuple, len(t))
	for i, v := range t {
		if v.IsNull() {
			out[i] = v
		} else {
			out[i] = entityid.String(strings.Clone(v.Str()))
		}
	}
	return out
}
