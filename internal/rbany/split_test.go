package rbany

import (
	"reflect"
	"slices"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// skewedFixture builds a workload whose anchor candidates have wildly
// different selectivity. The pattern is the chain S -> T -> U -> W -> Y
// (output Y). One "good" S node fans out to ten T children, exactly one
// of which completes the chain; five "decoy" S nodes carry one T child
// each — low Potential mass — but fat, fully-matching subtrees and padded
// degree, so a split that ranked by degree and divided evenly would burn
// the budget on them before the good anchor's turn. The third result is
// the good anchor's match, the Y ending its chain.
func skewedFixture(t *testing.T) (*graph.Graph, *pattern.Pattern, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(128, 256)
	add := func(label string) graph.NodeID { return b.AddNode(label) }

	// Good anchor: 10 T children (Potential mass 10); only t* completes.
	good := add("S")
	tStar := add("T")
	b.AddEdge(good, tStar)
	for i := 0; i < 9; i++ {
		b.AddEdge(good, add("T")) // duds: no U child, guard-rejected later
	}
	uStar := add("U")
	wStar := add("W")
	yStar := add("Y")
	b.AddEdge(tStar, uStar)
	b.AddEdge(uStar, wStar)
	b.AddEdge(wStar, yStar)

	// Shared degree-padding targets for the decoys.
	var pads []graph.NodeID
	for i := 0; i < 10; i++ {
		pads = append(pads, add("X"))
	}
	// Decoys: one T child (Potential mass 1) whose subtree matches twice
	// over — plenty of guard-passing structure to absorb a budget share —
	// plus padding edges so their degree (11) tops the good anchor's (10).
	for d := 0; d < 5; d++ {
		s := add("S")
		dt := add("T")
		b.AddEdge(s, dt)
		for i := 0; i < 2; i++ {
			u := add("U")
			b.AddEdge(dt, u)
			w := add("W")
			b.AddEdge(u, w)
			b.AddEdge(w, add("Y"))
		}
		for _, x := range pads {
			b.AddEdge(s, x)
		}
	}
	// Label-frequency padding: keep S the rarest label (6 nodes) so it is
	// picked as the anchor over W and Y.
	for i := 0; i < 8; i++ {
		add("W")
		add("Y")
	}
	g := b.Build()

	pb := pattern.NewBuilder()
	s := pb.AddNode("S")
	tt := pb.AddNode("T")
	u := pb.AddNode("U")
	w := pb.AddNode("W")
	y := pb.AddNode("Y")
	pb.AddEdge(s, tt).AddEdge(tt, u).AddEdge(u, w).AddEdge(w, y)
	pb.SetPersonalized(s).SetOutput(y)
	return g, pb.MustBuild(), yStar
}

// TestWeightedSplitBeatsEven: with a budget too small for six equal
// shares to cover the good anchor's match, the selectivity-weighted split
// funds the high-mass anchor and finds its match.
func TestWeightedSplitBeatsEven(t *testing.T) {
	g, p, want := skewedFixture(t)
	aux := graph.BuildAux(g)
	// Budget of ~40 items: the good anchor's match needs a 9-item
	// fragment, an even sixth of 40 cannot cover it.
	alpha := 40.5 / float64(g.Size())

	res := Simulation(aux, p, Options{Alpha: alpha})
	if res.Candidates != 6 {
		t.Fatalf("fixture broken: %d anchor candidates, want 6", res.Candidates)
	}
	if budget := int(alpha * float64(g.Size())); budget/res.Candidates >= 9 {
		t.Fatalf("fixture broken: an even share of %d covers the 9-item fragment", budget)
	}
	if !slices.Contains(res.Matches, want) {
		t.Fatalf("weighted split missed the high-mass anchor's match %d: got %v (visited %d)",
			want, res.Matches, res.Visited)
	}
}

// TestPreparedUnanchoredMatchesOneShot: compiling once and evaluating via
// Prepared is bit-for-bit identical to the one-shot helpers.
func TestPreparedUnanchoredMatchesOneShot(t *testing.T) {
	g, p, _ := skewedFixture(t)
	aux := graph.BuildAux(g)
	pr := Prepare(aux, p)
	for _, alpha := range []float64{0.05, 0.2, 0.8} {
		opts := Options{Alpha: alpha}
		if got, want := pr.Simulation(opts), Simulation(aux, p, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("alpha=%v: prepared sim %+v != one-shot %+v", alpha, got, want)
		}
		if got, want := pr.Subgraph(opts, nil), Subgraph(aux, p, opts, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("alpha=%v: prepared sub %+v != one-shot %+v", alpha, got, want)
		}
	}
}
