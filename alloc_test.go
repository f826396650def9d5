//go:build !race
// +build !race

package rbq

import (
	"context"
	"runtime"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/plan"
	"rbq/internal/rbany"
	"rbq/internal/reduce"
)

// allocFixture builds the DB, pattern and pin the anchored allocation
// gates share: a 4-node, 8-edge pattern extracted around a node of a
// 10k-node Youtube stand-in.
func allocFixture(t *testing.T) (*DB, *Pattern, NodeID) {
	t.Helper()
	g := YoutubeLike(10_000, 1)
	for seed := int64(0); seed < 50; seed++ {
		cand := NodeID(int(seed*131+17) % g.NumNodes())
		if g.Degree(cand) < 2 {
			continue
		}
		if q := gen.PatternAt(g, graph.NodeID(cand), gen.PatternConfig{Nodes: 4, Edges: 8, Seed: seed}); q != nil {
			return NewDB(g), q, cand
		}
	}
	t.Fatal("could not extract a test pattern")
	return nil, nil, 0
}

// enginePlan compiles q against db's current snapshot outside the plan
// cache, so a gate can time the bare plan-layer execution that the
// request layer wraps.
func enginePlan(t *testing.T, db *DB, q *Pattern) *plan.Plan {
	t.Helper()
	pl, err := plan.New(db.snapshot().Aux(), q)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestSimulationAtAllocBudget: a pooled resource-bounded anchored
// simulation on a warm DB stays within a small fixed allocation budget —
// the result slice plus bookkeeping — regardless of graph size. This is
// the steady state the batch APIs run in under heavy traffic.
func TestSimulationAtAllocBudget(t *testing.T) {
	db, q, vp := allocFixture(t)
	ctx := context.Background()
	req := Request{Anchor: &vp, Alpha: 0.001}
	run := func() {
		if _, err := db.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the aux scratch pool
	}
	// The budget tolerates the result slice and the occasional pool refill
	// after a GC; the seed implementation allocated >100 times per query.
	if avg := testing.AllocsPerRun(200, run); avg > 8 {
		t.Fatalf("pooled anchored simulation allocates %.1f times per run, want ≤ 8", avg)
	}
}

// TestQueryCacheHitAllocBudget: a pooled resource-bounded DB.Query on a
// warm DB and a warm plan cache — the request-layer hot path — stays
// within a small fixed allocation budget, the result slice plus
// bookkeeping, regardless of graph size. This is the steady state the
// batch APIs run in under heavy traffic. It must also allocate no more
// than the bare plan-layer execution it wraps: the request layer
// (validation, cache probe, context plumbing, Result assembly) adds no
// per-query allocations.
func TestQueryCacheHitAllocBudget(t *testing.T) {
	db, q, vp := allocFixture(t)
	pl := enginePlan(t, db, q)
	ctx := context.Background()
	req := Request{Anchor: &vp, Alpha: 0.001}
	query := func() {
		if _, err := db.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
	}
	engine := func() { pl.Simulation(vp, reduce.Options{Alpha: 0.001}) }
	for i := 0; i < 5; i++ {
		query() // first call takes the compile miss; the rest must hit
		engine()
	}
	queryAvg := testing.AllocsPerRun(200, query)
	engineAvg := testing.AllocsPerRun(200, engine)
	if queryAvg > engineAvg {
		t.Fatalf("DB.Query allocates %.1f times per run, the bare plan execution %.1f — the request layer must not add allocations", queryAvg, engineAvg)
	}
	// The budget tolerates the result slice and the occasional pool refill
	// after a GC; the seed implementation allocated >100 times per query.
	if queryAvg > 8 {
		t.Fatalf("cache-hit DB.Query allocates %.1f times per run, want ≤ 8", queryAvg)
	}
}

// TestPreparedRunAtAllocBudget: the prepared path must allocate no more
// than the one-shot DB.Query — preparation hoists work out of the
// per-query hot path, it must never add any back — and stays within the
// same absolute budget.
func TestPreparedRunAtAllocBudget(t *testing.T) {
	db, q, vp := allocFixture(t)
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Anchor: &vp, Alpha: 0.001}
	oneShot := func() {
		if _, err := db.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
	}
	prepared := func() {
		if _, err := pq.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		oneShot()
		prepared()
	}
	oneShotAvg := testing.AllocsPerRun(200, oneShot)
	preparedAvg := testing.AllocsPerRun(200, prepared)
	if preparedAvg > oneShotAvg {
		t.Fatalf("PreparedQuery.Query allocates %.1f times per run, one-shot DB.Query %.1f — prepared must not allocate more", preparedAvg, oneShotAvg)
	}
	if preparedAvg > 8 {
		t.Fatalf("PreparedQuery.Query allocates %.1f times per run, want ≤ 8", preparedAvg)
	}
}

// TestParallelUnanchoredAllocBudget: the speculative-wave path may buy
// its pool — the wave bookkeeping, the worker goroutines, the per-worker
// scratch — but the per-query steady-state overhead over the serial path
// must stay small and fixed; and the Parallelism = 0 serial path must
// allocate no more than the bare plan-layer unanchored evaluation it
// wraps.
func TestParallelUnanchoredAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 9000, Seed: 7, PowerLaw: true})
	db := NewDB(g)
	q := gen.PatternAt(g, 101, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if q == nil {
		t.Fatal("could not extract a test pattern")
	}
	ctx := context.Background()
	mk := func(p int) func() {
		req := Request{Mode: Unanchored, Alpha: 0.02, Parallelism: p}
		return func() {
			if _, err := db.Query(ctx, q, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial, parallel := mk(0), mk(4)
	pl := enginePlan(t, db, q)
	engine := func() { pl.SimulationUnanchored(rbany.Options{Alpha: 0.02}) }
	for i := 0; i < 5; i++ {
		serial()
		parallel()
		engine()
	}
	serialAvg := testing.AllocsPerRun(100, serial)
	parallelAvg := testing.AllocsPerRun(100, parallel)
	engineAvg := testing.AllocsPerRun(100, engine)
	if serialAvg > engineAvg {
		t.Fatalf("serial unanchored Query allocates %.1f times per run, the bare plan execution %.1f — Parallelism=0 must be the unchanged serial path", serialAvg, engineAvg)
	}
	if parallelAvg > serialAvg+64 {
		t.Fatalf("parallel unanchored Query allocates %.1f times per run, serial %.1f — per-query pool overhead must stay ≤ 64", parallelAvg, serialAvg)
	}
}

// TestQueryBatchShardedAllocBudget: sharding a batch across workers must
// cost a fixed pool overhead, not per-item allocations.
func TestQueryBatchShardedAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, q, vp := allocFixture(t)
	qs := make([]AnchoredQuery, 32)
	for i := range qs {
		qs[i] = AnchoredQuery{Q: q, At: vp}
	}
	ctx := context.Background()
	req := Request{Alpha: 0.001}
	mk := func(workers int) func() {
		return func() {
			if _, err := db.QueryBatch(ctx, qs, req, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial, sharded := mk(1), mk(4)
	for i := 0; i < 5; i++ {
		serial()
		sharded()
	}
	serialAvg := testing.AllocsPerRun(100, serial)
	shardedAvg := testing.AllocsPerRun(100, sharded)
	if shardedAvg > serialAvg+32 {
		t.Fatalf("sharded QueryBatch allocates %.1f times per run, serial %.1f — pool overhead must stay ≤ 32", shardedAvg, serialAvg)
	}
}

// TestQueryTraceAllocBudget: the observability layer must be free when
// off and bounded when on. WantTrace=false must add zero allocations
// over the bare plan execution (every engine touch point is a nil check,
// like the interrupt probes), and WantTrace=true buys its span tree
// within a fixed budget — the tree is per-phase aggregates, not per-item
// events.
func TestQueryTraceAllocBudget(t *testing.T) {
	db, q, vp := allocFixture(t)
	pl := enginePlan(t, db, q)
	ctx := context.Background()
	mk := func(trace bool) func() {
		req := Request{Anchor: &vp, Alpha: 0.001, WantTrace: trace}
		return func() {
			if _, err := db.Query(ctx, q, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	off, on := mk(false), mk(true)
	engine := func() { pl.Simulation(vp, reduce.Options{Alpha: 0.001}) }
	for i := 0; i < 5; i++ {
		off()
		on()
		engine()
	}
	offAvg := testing.AllocsPerRun(200, off)
	engineAvg := testing.AllocsPerRun(200, engine)
	onAvg := testing.AllocsPerRun(200, on)
	if offAvg > engineAvg {
		t.Fatalf("WantTrace=false Query allocates %.1f times per run, the bare plan execution %.1f — trace-off must add zero allocations", offAvg, engineAvg)
	}
	if onAvg > offAvg+128 {
		t.Fatalf("WantTrace=true Query allocates %.1f times per run, trace-off %.1f — the span tree must stay within a fixed budget", onAvg, offAvg)
	}
}

// TestSubgraphAtAllocBudget is the RBSub counterpart of
// TestQueryCacheHitAllocBudget's absolute budget.
func TestSubgraphAtAllocBudget(t *testing.T) {
	db, q, vp := allocFixture(t)
	ctx := context.Background()
	req := Request{Semantics: Subgraph, Anchor: &vp, Alpha: 0.001}
	run := func() {
		if _, err := db.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg > 8 {
		t.Fatalf("pooled Subgraph DB.Query allocates %.1f times per run, want ≤ 8", avg)
	}
}
