package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rbq"
)

// report is what one run of a workload produces.
type report struct {
	e2e    metrics // end-to-end metrics, measured untraced
	layer  metrics // per-layer metrics, filled in the traced run
	params []param // the workload's inputs, printed with the host
	// attempted counts every operation the run issued; failed those that
	// returned an error or were refused.
	attempted, failed int
	violations        []string
}

type param struct {
	name  string
	value any
}

func newReport() *report { return &report{e2e: metrics{}, layer: metrics{}} }

func (r *report) param(name string, v any) { r.params = append(r.params, param{name, v}) }

// violate records a failed correctness check; any one makes the run
// incorrect.
func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// checkBounded verifies the paper's resource bound on one bounded
// answer: the fragment holds at most α|G| items, and the reduction
// examined at most d_G·(α|G|+1) of them (Theorem 3(a); the engine's
// default visit budget, plus the one item that trips it).
func checkBounded(r *report, what string, res rbq.Result, maxDeg int) {
	if res.FragmentSize > res.Budget {
		r.violate("%s: fragment %d exceeds budget %d", what, res.FragmentSize, res.Budget)
	}
	if limit := (res.Budget+1)*max(1, maxDeg) + 1; res.Visited > limit {
		r.violate("%s: visited %d exceeds d_G·(α|G|+1) = %d", what, res.Visited, limit)
	}
}

// subset reports whether every element of a (sorted) is in b (sorted).
func subset(a, b []rbq.NodeID) bool {
	for _, v := range a {
		if _, ok := slices.BinarySearch(b, v); !ok {
			return false
		}
	}
	return true
}

// accuracy compares bounded answers with the Exact-mode answer of the
// same request, off the clock: each bounded answer must be a subset of
// the exact one, and the F-measure is averaged over templates. answers
// holds one bounded answer per template; nil entries are skipped. The
// exact runs share the CPUs, since nothing is timed here.
func accuracy(ctx context.Context, r *report, db *rbq.DB, ts []template, sem rbq.Semantics, answers [][]rbq.NodeID) float64 {
	f := make([]float64, len(ts))
	errs := make([]string, len(ts))
	failed := make([]bool, len(ts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ts); i = int(next.Add(1) - 1) {
				if answers[i] == nil {
					continue
				}
				t := ts[i]
				ex, err := db.Query(ctx, t.q, rbq.Request{Semantics: sem, Mode: rbq.Exact, Anchor: rbq.Pin(t.anchor)})
				if err != nil {
					failed[i] = true
					errs[i] = fmt.Sprintf("exact reference for %s template %d: %v", semName(sem), i, err)
					continue
				}
				if !subset(answers[i], ex.Matches) {
					errs[i] = fmt.Sprintf("%s template %d: bounded answer %v is not a subset of exact %v", semName(sem), i, answers[i], ex.Matches)
				}
				f[i] = rbq.MatchAccuracy(ex.Matches, answers[i]).F
			}
		}()
	}
	wg.Wait()
	sum, n := 0.0, 0
	for i := range ts {
		if answers[i] == nil {
			continue
		}
		r.attempted++
		if failed[i] {
			r.failed++
		} else {
			sum += f[i]
			n++
		}
		if errs[i] != "" {
			r.violate("%s", errs[i])
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// accuracyProbe runs the bounded and exact forms of each template
// in-process on the DB's current snapshot and returns the mean
// F-measures; serve-hot uses it after its window.
func accuracyProbe(ctx context.Context, r *report, db *rbq.DB, ts []template, alpha float64) (simF1, subF1 float64) {
	maxDeg := db.Graph().MaxDegree()
	for _, sem := range []rbq.Semantics{rbq.Simulation, rbq.Subgraph} {
		answers := make([][]rbq.NodeID, len(ts))
		for i, t := range ts {
			r.attempted++
			res, err := db.Query(ctx, t.q, rbq.Request{Semantics: sem, Alpha: alpha, Anchor: rbq.Pin(t.anchor)})
			if err != nil {
				r.failed++
				continue
			}
			checkBounded(r, fmt.Sprintf("%s template %d", semName(sem), i), res, maxDeg)
			answers[i] = nonNil(res.Matches)
		}
		f := accuracy(ctx, r, db, ts, sem, answers)
		if sem == rbq.Simulation {
			simF1 = f
		} else {
			subF1 = f
		}
	}
	return simF1, subF1
}

func nonNil(m []rbq.NodeID) []rbq.NodeID {
	if m == nil {
		return []rbq.NodeID{}
	}
	return m
}

func semName(s rbq.Semantics) string {
	if s == rbq.Subgraph {
		return "sub"
	}
	return "sim"
}

// unanchoredRequest is the paper's Section 7 extension at full width.
func unanchoredRequest(alpha float64) rbq.Request {
	return rbq.Request{Mode: rbq.Unanchored, Alpha: alpha, Parallelism: runtime.NumCPU()}
}

// unanchoredProbe times Unanchored RBSim over the templates for the
// given span, adding to lat and cycling on from where lat's earlier
// samples left off.
func unanchoredProbe(ctx context.Context, r *report, db *rbq.DB, ts []template, alpha float64, span time.Duration, lat *series) {
	start := time.Now()
	req := unanchoredRequest(alpha)
	for i := lat.len(); time.Since(start) < span; i++ {
		t := ts[i%len(ts)]
		r.attempted++
		t0 := time.Now()
		res, err := db.Query(ctx, t.q, req)
		d := time.Since(t0)
		if err != nil {
			r.failed++
			continue
		}
		if res.FragmentSize > res.Budget {
			r.violate("unanchored template %d: fragment %d exceeds budget %d", i%len(ts), res.FragmentSize, res.Budget)
		}
		lat.add(t0, us(d))
	}
}

// reachBatch is how many RBReach queries one timing covers: a single
// call takes a fraction of a microsecond, below what one clock read
// resolves well.
const reachBatch = 256

// reachMeter times RBReach in batches and checks every answer: a "true"
// must be BFS-true (Theorem 4(c)).
type reachMeter struct {
	pairs              []reachPair
	next               int
	ns                 samples // per-query time of each batch
	trues, truth, seen int
	visited            int64
	queries            int
	checked            bool // one full pass over pairs has been scored
}

func (m *reachMeter) batch(r *report, o *rbq.ReachOracle, timed bool) {
	var ans [reachBatch]rbq.ReachResult
	start := m.next
	t0 := time.Now()
	for k := range ans {
		p := m.pairs[(start+k)%len(m.pairs)]
		ans[k] = o.Reach(p.from, p.to)
	}
	if timed {
		m.ns.add(float64(time.Since(t0).Nanoseconds()) / reachBatch)
	}
	m.next = (start + reachBatch) % len(m.pairs)
	r.attempted += reachBatch
	for k, a := range ans {
		i := (start + k) % len(m.pairs)
		p := m.pairs[i]
		m.visited += int64(a.Visited)
		m.queries++
		if a.Answer && !p.truth {
			r.violate("reach %d->%d: oracle says true, BFS says false", p.from, p.to)
		}
		if m.checked {
			continue
		}
		if p.truth {
			m.truth++
			if a.Answer {
				m.trues++
			}
		}
		if m.seen++; m.seen == len(m.pairs) {
			m.checked = true
		}
	}
}

func (m *reachMeter) recall() float64 {
	if m.truth == 0 {
		return 0
	}
	return float64(m.trues) / float64(m.truth)
}

// warmup is how long a workload runs its mix, checked but untimed,
// before the measured window: long enough for the heap, the caches and
// the connections to settle.
func warmup(window time.Duration) time.Duration { return min(2*time.Second, window/5) }

// timeSetups repeats a set-up and returns the median duration; every
// set-up but the last is torn down.
func timeSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var s samples
	var last T
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		s.add(time.Since(t0).Seconds())
		last = v
	}
	return last, s.median(), nil
}
