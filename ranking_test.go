package rbq

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/obs"
)

// The unanchored anchor ranking (guard filter, Potential masses, sort) is
// built once per plan and query class and reused by every later
// evaluation of that plan. These tests pin what the memo must not change:
// repeated answers, racing first evaluations, epoch invalidation, and the
// agreement between EXPLAIN's predicted shares and the executed run.

func rankingFixture(t *testing.T) (*DB, *Pattern) {
	t.Helper()
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 9000, Seed: 7, PowerLaw: true})
	q := gen.PatternAt(g, 101, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if q == nil {
		t.Fatal("could not extract a test pattern")
	}
	return NewDB(g), q
}

// unanchoredRequest is the fixture's unanchored request under sem; the
// isomorphism runs carry a step cap.
func unanchoredRequest(sem Semantics) Request {
	req := Request{Semantics: sem, Mode: Unanchored, Alpha: 0.02}
	if sem == Subgraph {
		req.MaxSteps = 2000
	}
	return req
}

// unanchoredCore is the part of an unanchored Result the ranking feeds.
type unanchoredCore struct {
	Matches                                      []NodeID
	Candidates, Evaluated, Visited, FragmentSize int
}

func coreOf(r Result) unanchoredCore {
	return unanchoredCore{r.Matches, r.Candidates, r.Evaluated, r.Visited, r.FragmentSize}
}

// (a) Repeated evaluations of one cached plan — the first builds the
// ranking, the rest reuse it — return identical results, serially and at
// the full CPU width, for both semantics; and the two widths agree.
func TestUnanchoredRepeatedRunsIdentical(t *testing.T) {
	db, q := rankingFixture(t)
	ctx := context.Background()
	for _, sem := range []Semantics{Simulation, Subgraph} {
		var serial Result
		for _, par := range []int{0, runtime.NumCPU()} {
			req := unanchoredRequest(sem)
			req.Parallelism = par
			first, err := db.Query(ctx, q, req)
			if err != nil {
				t.Fatal(err)
			}
			if first.Candidates == 0 || first.Evaluated == 0 {
				t.Fatalf("sem=%v par=%d: degenerate fixture %+v", sem, par, coreOf(first))
			}
			if par == 0 {
				serial = first
			} else if !reflect.DeepEqual(coreOf(first), coreOf(serial)) {
				t.Errorf("sem=%v par=%d: %+v, serial %+v", sem, par, coreOf(first), coreOf(serial))
			}
			for i := 0; i < 3; i++ {
				again, err := db.Query(ctx, q, req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(coreOf(again), coreOf(first)) {
					t.Errorf("sem=%v par=%d run %d: %+v, first run %+v",
						sem, par, i+1, coreOf(again), coreOf(first))
				}
			}
		}
	}
}

// (b) Goroutines racing the first unanchored evaluation of one cached
// plan all get the answer a serial evaluation on a separate DB returns.
// The plan is cached by an anchored query first, so every racer hits it
// with the ranking still unbuilt.
func TestUnanchoredFirstEvaluationRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ref, q := rankingFixture(t)
	db, _ := rankingFixture(t)
	ctx := context.Background()
	reqs := []Request{
		{Mode: Unanchored, Alpha: 0.02},
		{Mode: Unanchored, Alpha: 0.02, Parallelism: 2},
		{Semantics: Subgraph, Mode: Unanchored, Alpha: 0.02, MaxSteps: 2000},
		{Semantics: Subgraph, Mode: Unanchored, Alpha: 0.02, MaxSteps: 2000, Parallelism: 4},
	}
	want := make([]Result, len(reqs))
	for i, req := range reqs {
		r, err := ref.Query(ctx, q, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	pin := db.Graph().NodesWithLabel(db.Graph().LabelIDOf(q.Label(q.Personalized())))[0]
	if _, err := db.Query(ctx, q, Request{Alpha: 0.02, Anchor: Pin(pin)}); err != nil {
		t.Fatal(err)
	}
	const racers = 16
	got := make([]Result, racers)
	errs := make([]error, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			req := reqs[i%len(reqs)]
			req.WantStats = true
			got[i], errs[i] = db.Query(ctx, q, req)
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if !got[i].Stats.PlanCacheHit {
			t.Errorf("racer %d missed the cached plan", i)
		}
		got[i].Stats = nil
		if w := want[i%len(reqs)]; !reflect.DeepEqual(got[i], w) {
			t.Errorf("racer %d (%+v):\n got %+v\nwant %+v", i, reqs[i%len(reqs)], got[i], w)
		}
	}
}

// (c) A ranking never outlives its snapshot: after an Apply that strips
// the top-ranked anchor candidates of their edges and adds edges at
// others, the unanchored answer equals a fresh DB's over the mutated
// graph — with the delta live in an overlay and after compaction, and
// whether the stale plan is recompiled by the warmer or on lookup.
func TestUnanchoredRankingFollowsApply(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ compact, warm bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		compact := tc.compact
		db, q := rankingFixture(t)
		db.SetCompactThreshold(1 << 30)
		if !tc.warm {
			db.SetPlanWarmCount(0)
		}
		reqs := []Request{
			{Mode: Unanchored, Alpha: 0.02},
			{Semantics: Subgraph, Mode: Unanchored, Alpha: 0.02, MaxSteps: 2000},
		}
		before := make([]Result, len(reqs))
		for i, req := range reqs {
			r, err := db.Query(ctx, q, req)
			if err != nil {
				t.Fatal(err)
			}
			before[i] = r
		}
		ex, err := db.Explain(q, reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Shares) < 6 {
			t.Fatalf("only %d predicted shares", len(ex.Shares))
		}
		g := db.Graph()
		var ops []Op
		for _, s := range ex.Shares[:5] {
			for _, w := range g.Out(s.V) {
				ops = append(ops, DelEdge(s.V, w))
			}
			for _, w := range g.In(s.V) {
				if w != s.V {
					ops = append(ops, DelEdge(w, s.V))
				}
			}
		}
		for _, s := range ex.Shares[5:] {
			for _, w := range []NodeID{0, 1, 2} {
				if w != s.V && !g.HasEdge(s.V, w) {
					ops = append(ops, AddEdge(s.V, w))
				}
			}
		}
		if err := db.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if compact {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if tc.warm {
			db.waitWarm()
		}
		fresh := NewDB(db.Graph())
		for i, req := range reqs {
			got, err := db.Query(ctx, q, req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(ctx, q, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v %+v:\n got %+v\nwant %+v", tc, req, got, want)
			}
			if got.Candidates >= before[i].Candidates {
				t.Errorf("%+v %+v: %d candidates after removing 5 of %d — stale ranking",
					tc, req, got.Candidates, before[i].Candidates)
			}
		}
	}
}

// (d) EXPLAIN's predicted shares are the executed run's first shares:
// the first anchor of a serial run and every anchor of the first
// speculative wave of a parallel run use exactly the predicted share.
// Whichever of EXPLAIN or evaluation builds the ranking, the prediction
// is the same.
func TestExplainSharesEqualFirstShares(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx := context.Background()
	for _, sem := range []Semantics{Simulation, Subgraph} {
		req := unanchoredRequest(sem)
		explainFirst, q := rankingFixture(t)
		ex, err := explainFirst.Explain(q, req)
		if err != nil {
			t.Fatal(err)
		}
		queryFirst, _ := rankingFixture(t)
		if _, err := queryFirst.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
		ex2, err := queryFirst.Explain(q, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ex.Shares, ex2.Shares) || ex.ShareTotal != ex2.ShareTotal {
			t.Fatalf("sem=%v: predictions differ by build order:\n%+v\n%+v", sem, ex.Shares, ex2.Shares)
		}
		if len(ex.Shares) < 4 {
			t.Fatalf("sem=%v: only %d predicted shares", sem, len(ex.Shares))
		}

		traced := req
		traced.WantTrace = true
		serial, err := explainFirst.Query(ctx, q, traced)
		if err != nil {
			t.Fatal(err)
		}
		first := serial.Trace.Find(obs.PhaseAnchor)
		if first == nil {
			t.Fatalf("sem=%v: no anchor span", sem)
		}
		checkShare(t, "serial anchor 0", first, ex.Shares[0])

		traced.Parallelism = 4
		par, err := explainFirst.Query(ctx, q, traced)
		if err != nil {
			t.Fatal(err)
		}
		wave := par.Trace.Find(obs.PhaseWave)
		if wave == nil {
			t.Fatalf("sem=%v: no wave span", sem)
		}
		checked := 0
		for _, c := range wave.Children {
			if c.Name == obs.PhaseAnchor {
				checkShare(t, "wave 0 anchor", c, ex.Shares[checked])
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("sem=%v: first wave accepted no anchor", sem)
		}
	}
}

func checkShare(t *testing.T, what string, span *obs.Span, want ExplainShare) {
	t.Helper()
	v, _ := span.Counter("v")
	share, _ := span.Counter("share")
	if NodeID(v) != want.V || int(share) != want.Share {
		t.Errorf("%s ran (%d, share %d), explain predicted (%d, share %d)", what, v, share, want.V, want.Share)
	}
}

// A pattern self-loop must be matched by a data self-loop. Bounded RBSub
// and the exact VF2Opt baseline both reject a pin whose image lacks the
// loop, and the bounded answer stays within the exact one.
func TestSubgraphSelfLoopSoundness(t *testing.T) {
	// B1 has no self-loop but the degree to pass degree pruning; B3 has
	// one.
	g := FromEdgesForTest([]string{"A", "B", "A", "B"},
		[][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 3}})
	db := NewDB(g)
	q, err := ParsePattern("node 0 A*\nnode 1 B!\nedge 0 1\nedge 1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		pin  NodeID
		want []NodeID
	}{{0, nil}, {2, []NodeID{3}}}
	for _, c := range cases {
		exact, err := db.Query(ctx, q, Request{Semantics: Subgraph, Mode: Exact, Anchor: Pin(c.pin)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact.Matches, c.want) {
			t.Errorf("pin %d: exact %v, want %v", c.pin, exact.Matches, c.want)
		}
		bounded, err := db.Query(ctx, q, Request{Semantics: Subgraph, Alpha: 1, Anchor: Pin(c.pin)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bounded.Matches, c.want) {
			t.Errorf("pin %d: bounded %v, want %v", c.pin, bounded.Matches, c.want)
		}
	}
	un, err := db.Query(ctx, q, Request{Semantics: Subgraph, Mode: Unanchored, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []NodeID{3}; !reflect.DeepEqual(un.Matches, want) {
		t.Errorf("unanchored %v, want %v", un.Matches, want)
	}
}
