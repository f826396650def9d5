package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"rbq"
)

// unanchoredEvery is how often paper-cold adds an Unanchored RBSim query
// and a batch of RBReach queries to a template's sim + sub pair.
const unanchoredEvery = 16

// runPaperCold is the paper's own setting: one closed-loop caller in
// process, read-only, cycling through 4× as many distinct templates as
// the plan cache holds, so every plan lookup compiles. reduce, match,
// rbany and reach do nearly all the work; server, delta and store none.
// A write probe after the window times in-process Apply on a durable
// DB, which isolates delta and store from the HTTP tier.
func runPaperCold(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	in, err := makeInput(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	in.params(rep, cfg)
	cfg.logf("inputs generated")
	rep.param("clients", 1)
	rep.param("unanchored_every", unanchoredEvery)
	rep.param("unanchored_parallelism", unanchoredRequest(0).Parallelism)
	rep.param("reach_batch", reachBatch)
	rep.param("write_probe_batches", cfg.sc.writeProbe)
	rep.param("sync", "SyncBatch (every ack fsynced)")
	rep.param("compact_threshold", cfg.sc.compactThreshold)

	type system struct {
		db *rbq.DB
		o  *rbq.ReachOracle
	}
	sys, setup, err := timeSetups(cfg.sc.setups, func() (system, error) {
		db := rbq.NewDB(in.g)
		return system{db, db.BuildReachOracle(in.alpha)}, nil
	}, func(system) {})
	if err != nil {
		return nil, err
	}
	db := sys.db
	rep.e2e.set("setup_s", setup, "s")
	rep.e2e.set("heap_mb", liveHeapMB(), "MiB")
	cfg.logf("set up %d times", cfg.sc.setups)

	n := len(in.cold)
	maxDeg := in.g.MaxDegree()
	var first [2][][]rbq.NodeID // per semantics, the first answer of each template
	first[0], first[1] = make([][]rbq.NodeID, n), make([][]rbq.NodeID, n)
	firstUn := make([][]rbq.NodeID, n)
	var lat, latTraced [2]*series
	var unLat *series
	var unCands, unEvaluated int64
	var rc reduceCounters
	reach := &reachMeter{pairs: in.reach}
	tr := newTracer()
	unReq := unanchoredRequest(in.alpha)

	queries := 0
	var rate *rateMeter
	i := 0
	// loop runs the mix until the deadline. Unmeasured, it is the
	// warm-up: its answers are checked but not timed.
	loop := func(deadline time.Time, measure bool) {
		for ; time.Now().Before(deadline); i++ {
			for si, sem := range []rbq.Semantics{rbq.Simulation, rbq.Subgraph} {
				// sim, sub and unanchored visit the templates half or a
				// quarter of a cycle apart, so between two uses of one
				// template come at least n/2 lookups of others, more
				// than the cache holds: every lookup compiles.
				ti := (i + si*n/2) % n
				t := in.cold[ti]
				traced := measure && cfg.trace && queries%2 == 0
				req := rbq.Request{Semantics: sem, Alpha: in.alpha, Anchor: rbq.Pin(t.anchor), WantTrace: traced}
				rep.attempted++
				t0 := time.Now()
				res, err := db.Query(ctx, t.q, req)
				d := time.Since(t0)
				if err != nil {
					rep.failed++
					continue
				}
				if measure {
					queries++
					rate.done(t0.Add(d))
					if traced {
						latTraced[si].add(t0, us(d))
						tr.record("q"+strconv.Itoa(queries), semName(sem), t0, d, res.Trace)
						rc.add(res.Trace)
					} else {
						lat[si].add(t0, us(d))
					}
				}
				checkBounded(rep, fmt.Sprintf("%s template %d", semName(sem), ti), res, maxDeg)
				m := nonNil(res.Matches)
				if first[si][ti] == nil {
					first[si][ti] = m
				} else if !slices.Equal(first[si][ti], m) {
					rep.violate("%s template %d: answer changed between runs on a read-only graph", semName(sem), ti)
				}
			}
			if i%unanchoredEvery != 0 {
				continue
			}
			ti := (i + n/4) % n
			t := in.cold[ti]
			req := unReq
			req.WantTrace = measure && cfg.trace
			rep.attempted++
			t0 := time.Now()
			res, err := db.Query(ctx, t.q, req)
			d := time.Since(t0)
			if err != nil {
				rep.failed++
			} else {
				if measure {
					queries++
					rate.done(t0.Add(d))
					unLat.add(t0, us(d))
					unCands += int64(res.Candidates)
					unEvaluated += int64(res.Evaluated)
					if cfg.trace {
						tr.record("q"+strconv.Itoa(queries), "unanchored", t0, d, res.Trace)
					}
				}
				if res.FragmentSize > res.Budget {
					rep.violate("unanchored template %d: fragment %d exceeds budget %d", ti, res.FragmentSize, res.Budget)
				}
				m := nonNil(res.Matches)
				if firstUn[ti] == nil {
					firstUn[ti] = m
				} else if !slices.Equal(firstUn[ti], m) {
					rep.violate("unanchored template %d: answer changed between runs on a read-only graph", ti)
				}
			}
			reach.batch(rep, sys.o, measure)
		}
	}
	loop(time.Now().Add(warmup(cfg.window)), false)

	pc0 := db.PlanCacheStats()
	before := readProc()
	start := time.Now()
	tr.start = start
	rate = newRateMeter(start, cfg.window)
	for si := range lat {
		lat[si], latTraced[si] = newSeries(start, cfg.window), newSeries(start, cfg.window)
	}
	unLat = newSeries(start, cfg.window)
	loop(start.Add(cfg.window), true)
	after := readProc()
	pc1 := db.PlanCacheStats()
	cfg.logf("window closed after %d queries", queries)

	// Off the clock: finish scoring reachability, then check every
	// bounded answer against the exact one.
	for !reach.checked {
		reach.batch(rep, sys.o, false)
	}
	if cfg.corrupt {
		for ti := range first[0] {
			if first[0][ti] != nil {
				first[0][ti] = append(slices.Clone(first[0][ti]), rbq.NoNode)
				break
			}
		}
	}
	simF1 := accuracy(ctx, rep, db, in.cold, rbq.Simulation, first[0])
	subF1 := accuracy(ctx, rep, db, in.cold, rbq.Subgraph, first[1])
	cfg.logf("answers checked against exact")

	rep.e2e.set("query_per_s", rate.perSecond(), "1/s")
	setLatencies(rep.e2e, lat)
	rep.e2e.set("unanchored_p50_us", unLat.quantile(0.5), "us")
	rep.e2e.set("reach_ns", reach.ns.median(), "ns")
	rep.e2e.set("reach_recall", reach.recall(), "ratio")
	rep.e2e.set("sim_f1", simF1, "ratio")
	rep.e2e.set("sub_f1", subF1, "ratio")

	if cfg.trace {
		zeroLayers(rep.layer)
	}
	applyLat, err := durableWrites(rep, cfg, in.g)
	if err != nil {
		return nil, err
	}
	rep.e2e.set("apply_p50_ms", applyLat.median(), "ms")
	rep.e2e.set("apply_p99_ms", applyLat.p99(), "ms")

	if cfg.trace {
		recs := tr.finish()
		layerStats(rep.layer, recs)
		rc.set(rep.layer)
		planLayer(rep.layer, pc0, pc1, queries)
		runtimeMetrics(rep.layer, before, after, queries)
		rep.layer.set("reach.visited_per_query", float64(reach.visited)/float64(max(1, reach.queries)), "count")
		if unCands > 0 {
			rep.layer.set("rbany.evaluated_per_candidate", float64(unEvaluated)/float64(unCands), "ratio")
		}
		rep.layer.set("trace.overhead_us", latTraced[0].quantile(0.5)-lat[0].quantile(0.5), "us")
		if err := dumpSpans(cfg, recs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// params records the generated inputs shared by every workload.
func (in *input) params(rep *report, cfg config) {
	rep.param("graph", "YoutubeLike")
	rep.param("nodes", in.g.NumNodes())
	rep.param("edges", in.g.NumEdges())
	rep.param("G", in.g.Size())
	rep.param("alpha", strconv.FormatFloat(in.alpha, 'g', 6, 64))
	rep.param("alpha_budget", int(in.alpha*float64(in.g.Size())))
	rep.param("paper_alpha", paperAlpha)
	rep.param("Q", fmt.Sprintf("(%d,%d)", qNodes, qEdges))
	rep.param("templates", len(in.cold))
	rep.param("hot_templates", len(in.hot))
	rep.param("plan_cache_capacity", rbq.DefaultPlanCacheCapacity)
	rep.param("reach_pairs", len(in.reach))
	rep.param("setups", cfg.sc.setups)
}

// planLayer reports the plan cache's counters over a window.
func planLayer(m metrics, a, b rbq.PlanCacheStats, queries int) {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses > 0 {
		m.set("plan.hit_rate", float64(hits)/float64(hits+misses), "ratio")
	}
	m.set("plan.invalidations_per_kq", float64(b.Invalidations-a.Invalidations)/float64(max(1, queries))*1000, "count")
	m.set("plan.warmer_recompiles", float64(b.WarmerRecompiles-a.WarmerRecompiles), "count")
}

// applyProbe is a write probe: it times apply of the mutation feed's
// batches back to back, n of them after warm untimed ones (which grow
// the heap to its steady size). apply gets the batch index, negative
// during the warm-up.
func applyProbe(rep *report, w *writer, batchOps, n, warm int, apply func(i int, ops []rbq.Op) error) samples {
	var lat samples
	for i := -warm; i < n; i++ {
		ops := w.batch(batchOps)
		rep.attempted++
		t0 := time.Now()
		err := apply(i, ops)
		d := time.Since(t0)
		if err != nil {
			rep.failed++
			rep.violate("apply batch %d rejected: %v", i, err)
			continue
		}
		if i >= 0 {
			lat.add(ms(d))
		}
	}
	return lat
}

// durableWrites is paper-cold's write probe: the mutation feed applied
// in process, back to back, to a durable DB bootstrapped from the same
// graph. SyncBatch fsyncs every batch before Apply returns, and each
// compaction writes a base image, so the probe times delta and store
// without the HTTP tier. Every acked batch must survive close and
// reopen.
func durableWrites(rep *report, cfg config, g *rbq.Graph) (samples, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("durable-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := rbq.OpenDB(dir, rbq.OpenOptions{Bootstrap: g, Sync: rbq.SyncBatch})
	if err != nil {
		return nil, err
	}
	db.SetCompactThreshold(cfg.sc.compactThreshold)
	w := newWriter(g, cfg.seed)
	var wl writeLayers
	var acked uint64
	var opBytes int64
	before := procWriteBytes()
	lat := applyProbe(rep, w, cfg.sc.batchOps, cfg.sc.writeProbe, cfg.sc.writeWarmup, func(i int, ops []rbq.Op) error {
		err := db.Apply(ops)
		if err != nil {
			return err
		}
		acked++
		if cfg.trace && i >= 0 {
			wl.observe(db.MutationStats())
			opBytes += int64(len(encodeOps(ops)))
		}
		return nil
	})
	after := procWriteBytes()
	dirMB := dirSize(dir) / (1 << 20)
	if err := db.Close(); err != nil {
		rep.violate("close: %v", err)
	}
	if cfg.corrupt {
		acked++
	}
	checkReopen(rep, dir, g, w, acked)
	if cfg.trace {
		wl.set(rep.layer)
		rep.layer.set("store.dir_mb", dirMB, "MiB")
		if before >= 0 && after >= 0 && opBytes > 0 {
			rep.layer.set("store.write_bytes_per_op_byte", float64(after-before)/float64(opBytes), "ratio")
		}
	}
	cfg.logf("durable write probe done")
	return lat, nil
}
