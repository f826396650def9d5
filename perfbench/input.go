package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rbq"
	"rbq/internal/bench"
	"rbq/internal/delta"
	"rbq/internal/gen"
)

// paperAlpha is the α of the paper's default setting (Section 6, Exp-1).
// The benchmark keeps the paper's absolute budget α·|G_paper| on the
// smaller stand-in graph, which is about 97 items at 200k nodes.
const paperAlpha = 1.6e-5

// Pattern shape |Q| = (4, 8), the paper's default.
const qNodes, qEdges = 4, 8

// input is everything a workload generates from its seed before the
// system under test sees any of it.
type input struct {
	g     *rbq.Graph
	alpha float64
	// cold holds distinct templates, each extracted around its own
	// anchor; hot holds serve-hot's popular templates.
	cold []template
	hot  []template
	// reach pairs with their BFS truth on g.
	reach []reachPair
}

// template is one anchored pattern. The personalized node keeps the
// anchor's own (shared) label, so every request pins it explicitly.
type template struct {
	q      *rbq.Pattern
	text   string
	anchor rbq.NodeID
}

type reachPair struct {
	from, to rbq.NodeID
	truth    bool
}

// datasetSeed fixes the data graph and the hot templates: like the
// paper's real-life graphs, they are the benchmark's dataset, the same
// in every run. The run's seed draws the workload over it — the cold
// templates and their anchors, the request sequence, the reachability
// pairs and the mutation feed. Drawing the graph or the hot set per
// seed would make a few heavy nodes or templates decide a run's
// latencies, and the seed-to-seed spread would hide a regression.
const datasetSeed = 1

func makeInput(sc scale, seed int64) (*input, error) {
	g := rbq.YoutubeLike(sc.nodes, datasetSeed)
	alpha := paperAlpha * float64(bench.YoutubePaperSize) / float64(g.Size())
	hot, err := makeTemplates(g, sc.hot, rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cold, err := makeTemplates(g, sc.templates, rng)
	if err != nil {
		return nil, err
	}
	return &input{
		g:     g,
		alpha: alpha,
		cold:  cold,
		hot:   hot,
		reach: makeReachPairs(g, sc.reachSources, sc.reachTargets, rng),
	}, nil
}

// makeTemplates extracts n templates with pairwise distinct text, so
// that cycling through more of them than the plan cache holds makes
// every lookup miss.
func makeTemplates(g *rbq.Graph, n int, rng *rand.Rand) ([]template, error) {
	seen := make(map[string]bool, n)
	out := make([]template, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("extracted only %d of %d distinct templates", len(out), n)
		}
		vp := rbq.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(vp) < 2 {
			continue
		}
		q := gen.PatternAt(g, vp, gen.PatternConfig{Nodes: qNodes, Edges: qEdges, Seed: rng.Int63()})
		if q == nil || seen[q.String()] {
			continue
		}
		seen[q.String()] = true
		out = append(out, template{q: q, text: q.String(), anchor: vp})
	}
	return out, nil
}

// makeReachPairs draws targets per source, half uniformly and half by a
// short forward walk so that reachable pairs are well represented, and
// labels each by one BFS per source.
func makeReachPairs(g *rbq.Graph, sources, targets int, rng *rand.Rand) []reachPair {
	out := make([]reachPair, 0, sources*targets)
	seen := make([]int32, g.NumNodes())
	for s := 1; s <= sources; s++ {
		from := rbq.NodeID(rng.Intn(g.NumNodes()))
		// BFS from the source, stamping reached nodes with s.
		seen[from] = int32(s)
		queue := []rbq.NodeID{from}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Out(v) {
				if seen[w] != int32(s) {
					seen[w] = int32(s)
					queue = append(queue, w)
				}
			}
		}
		for t := 0; t < targets; t++ {
			to := rbq.NodeID(rng.Intn(g.NumNodes()))
			if t%2 == 1 {
				to = from
				for steps := rng.Intn(8) + 1; steps > 0; steps-- {
					outs := g.Out(to)
					if len(outs) == 0 {
						break
					}
					to = outs[rng.Intn(len(outs))]
				}
			}
			out = append(out, reachPair{from: from, to: to, truth: seen[to] == int32(s)})
		}
	}
	// Mixed sources in every timed batch, so that batch times do not
	// follow one source's index neighbourhood.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// writer generates the mutation feed: each op adds an edge absent from
// the graph or deletes one the writer added earlier. It tracks the
// graph's edge set itself (base edges plus its own live additions), so
// it never sends an op that Apply must reject.
type writer struct {
	g     *rbq.Graph
	rng   *rand.Rand
	added map[[2]rbq.NodeID]int // edge -> index in live
	live  [][2]rbq.NodeID
	// addFrac is the share of ops that add. Above one half the live
	// delta grows, so compaction triggers during a run.
	addFrac float64
}

func newWriter(g *rbq.Graph, seed int64) *writer {
	return &writer{
		g:       g,
		rng:     rand.New(rand.NewSource(seed ^ 0x3717e)),
		added:   map[[2]rbq.NodeID]int{},
		addFrac: 0.875,
	}
}

func (w *writer) batch(n int) []rbq.Op {
	ops := make([]rbq.Op, 0, n)
	for len(ops) < n {
		if len(w.live) > 0 && w.rng.Float64() >= w.addFrac {
			i := w.rng.Intn(len(w.live))
			e := w.live[i]
			last := w.live[len(w.live)-1]
			w.live[i] = last
			w.added[last] = i
			w.live = w.live[:len(w.live)-1]
			delete(w.added, e)
			ops = append(ops, rbq.DelEdge(e[0], e[1]))
			continue
		}
		u := rbq.NodeID(w.rng.Intn(w.g.NumNodes()))
		v := rbq.NodeID(w.rng.Intn(w.g.NumNodes()))
		e := [2]rbq.NodeID{u, v}
		if _, ok := w.added[e]; ok || u == v || w.g.HasEdge(u, v) {
			continue
		}
		w.added[e] = len(w.live)
		w.live = append(w.live, e)
		ops = append(ops, rbq.AddEdge(u, v))
	}
	return ops
}

// encodeOps renders one batch in the op-stream text that /v1/apply
// reads.
func encodeOps(ops []rbq.Op) []byte {
	var b bytes.Buffer
	_ = delta.WriteOps(&b, [][]rbq.Op{ops}) // a bytes.Buffer does not fail
	return b.Bytes()
}
