// Package reduce implements the dynamic reduction scheme of Section 4 of
// Fan, Wang & Wu (SIGMOD 2014): a query-guided, weight-ranked, budgeted
// traversal that extracts a fragment G_Q of a data graph G with
// |G_Q| ≤ α·|G|, visiting a bounded amount of data.
//
// The engine is the Search/Pick machinery of Fig. 3, parameterized by the
// matching semantics (strong simulation for RBSim, subgraph isomorphism
// for RBSub) through a Semantics value that supplies the guarded condition
// C(v,u) and the potential p(v,u). The engine itself owns the parts both
// algorithms share: the stack-driven traversal guided by the pattern, the
// dynamically maintained cost c(v,u), the weight p/(c+1), the fairness
// bound b (initially 2, escalated when a round stalls), the size budget
// α|G|, the visit budget c·α|G|, and cooperative cancellation
// (Options.Interrupt, polled every interrupt.Stride visited items).
//
// # Scratch state and pooling
//
// The engine keeps no per-round heap state: the per-round (u,v) sets of
// Fig. 3 ("pushed this round", "expanded this round") are epoch-stamped
// arrays indexed by pattern-node × data-node — switching to a budget-sized
// open-addressing pair table when |Q|·|V| exceeds 2^25, so multi-million-
// node graphs keep the same O(1) reset with no Go map anywhere — and the
// frontier ranking runs over a reusable candidate buffer with a
// concrete-type selection of the top-b (no sort.Slice, no reflection). All of it lives in a Scratch that Search borrows from the
// Aux's scratch pool (graph.ScratchReduce) and returns on exit, so
// steady-state reductions do not allocate; callers that manage their own
// pooling (rbsim, rbsub) pass a Scratch and a reusable Fragment to
// SearchInto directly.
//
// Thread-safety: a Scratch (and the Fragment given to SearchInto) is owned
// by one goroutine for the duration of the call; the Aux pools hand each
// borrower a distinct value, which is what makes concurrent batch
// evaluation over one shared Aux safe.
package reduce

import (
	"math"
	"math/rand"

	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/obs"
	"rbq/internal/pattern"
)

// Semantics supplies the query-class-specific ingredients of the dynamic
// reduction. Implementations must be cheap: both methods are evaluated
// against the offline auxiliary structure, not by traversing G.
type Semantics interface {
	// Guard is the guarded condition C(v,u): false means v provably
	// cannot match u and is pruned from the search.
	Guard(v graph.NodeID, u pattern.NodeID) bool
	// Potential is p(v,u), an optimistic estimate of how many matches of
	// u's pattern neighbors live in N(v).
	Potential(v graph.NodeID, u pattern.NodeID) float64
}

// WeightStrategy selects how frontier candidates are ranked; alternatives
// to the paper's formula exist for the abl-weight ablation in
// internal/bench/ablation.go.
type WeightStrategy int

const (
	// WeightPotentialCost ranks by p(v,u)/(c(v,u)+1), the paper's weight.
	WeightPotentialCost WeightStrategy = iota
	// WeightDegree ranks by node degree (a degree-greedy frontier).
	WeightDegree
	// WeightRandom ranks randomly (an uninformed frontier), seeded for
	// reproducibility.
	WeightRandom
)

// Options configures a reduction run.
type Options struct {
	// Alpha is the resource ratio α ∈ (0,1): the fragment size budget is
	// ⌊α·|G|⌋ (in nodes+edges).
	Alpha float64
	// VisitBudget caps the number of data items (neighbor slots) examined
	// during reduction — the paper's α·c·|G| with c = d_G. Zero applies
	// the default ⌈α·|G|⌉·maxDegree(G).
	VisitBudget int
	// InitialBound is the fairness bound b of Fig. 3; zero means the
	// paper's initial value 2.
	InitialBound int
	// MaxBound caps bound escalation; zero means unlimited (escalation
	// already stops when a round adds no new node).
	MaxBound int
	// Strategy selects the candidate ranking; the zero value is the
	// paper's p/(c+1).
	Strategy WeightStrategy
	// Seed feeds WeightRandom.
	Seed int64
	// DisableGuard drops the guarded condition to a label-only test
	// (ablation).
	DisableGuard bool
	// Trace, when non-nil, receives every reduction step (see Event).
	Trace Tracer
	// Obs, when non-nil, is the parent span for this run's observability
	// tree: SearchInto hangs a "reduce" child with per-round aggregate
	// spans (bridged from the event stream, not raw events) plus summary
	// counters off it. Nil keeps the hot path span-free.
	Obs *obs.Span
	// Interrupt, when non-nil, is polled every interrupt.Stride visited
	// items; once it is closed the search stops cooperatively and Stats
	// reports Canceled. The facade passes a context's Done channel here —
	// nil (context.Background) keeps the hot path probe-free.
	Interrupt <-chan struct{}
}

// Stats reports what a reduction run did.
type Stats struct {
	// Budget is ⌊α·|G|⌋, the fragment size cap.
	Budget int
	// FragmentSize is |G_Q| = nodes + edges actually extracted.
	FragmentSize int
	// FragmentNodes and FragmentEdges break FragmentSize down.
	FragmentNodes, FragmentEdges int
	// Visited counts data items examined (neighbor slots scanned by Pick
	// plus nodes popped), the quantity Theorem 3(a) bounds by d_G·α|G|.
	Visited int
	// Rounds is the number of bound-escalation rounds executed.
	Rounds int
	// FinalBound is the fairness bound b when the search stopped.
	FinalBound int
	// BudgetExhausted reports whether the size budget stopped the search
	// (as opposed to the frontier draining).
	BudgetExhausted bool
	// VisitsExhausted reports whether the visit budget stopped the search.
	VisitsExhausted bool
	// PairHighWater is the largest number of live (pattern node, data
	// node) pairs any per-round stamp held at once. The budget-derived
	// hint that sizes the huge-graph pair table assumes roughly one pair
	// per affordable fragment item; this records what a run actually
	// needed, so the hint can be tuned empirically.
	PairHighWater int
	// Canceled reports that Options.Interrupt fired and stopped the
	// search before a budget did; the fragment holds whatever had been
	// extracted when the probe observed the cancellation.
	Canceled bool
}

type pairKey struct {
	u pattern.NodeID
	v graph.NodeID
}

// maxStampEntries bounds the dense pair-stamp arrays to 4 B × 2^25 =
// 128 MiB each; beyond that (enormous graph × wide pattern) the stamp
// switches to a budget-sized open-addressing pair table (see pairTable),
// which is still reset in O(1) and still map-free.
const maxStampEntries = 1 << 25

// Pair-table sizing. The table starts at minTableEntries slots, grows by
// doubling when half full, and is re-allocated at its minimum size when a
// reset finds it larger than maxTableEntries — so one pathological query
// cannot pin hundreds of MiB inside a long-lived pooled Scratch.
const (
	minTableEntries = 1 << 12
	maxTableEntries = 1 << 22
)

// pairTable is an epoch-stamped open-addressing hash set of (u,v) pairs
// for the huge-graph regime where the dense array would exceed
// maxStampEntries. A slot is live when its stamp equals the current
// epoch, so per-round clearing is a single epoch increment; linear
// probing treats stale slots as empty, which is sound because an epoch
// bump invalidates every slot at once. Unlike a Go map it never hashes
// strings, never allocates per insert, and keeps O(1) reset.
type pairTable struct {
	keys  []uint64
	stamp []int32
	epoch int32
	live  int // slots claimed this epoch, to trigger growth at 1/2 load
}

func packPair(k pairKey) uint64 {
	return uint64(uint32(k.u))<<32 | uint64(uint32(k.v))
}

// pairHash is the 64-bit finalizer of MurmurHash3: cheap, allocation-free
// and well-mixed for the low bits that index the table.
func pairHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// reset empties the table in O(1), sizing it for hint expected pairs (the
// engine passes a budget-derived estimate; growth covers underestimates).
func (t *pairTable) reset(hint int) {
	want := minTableEntries
	for want < 2*hint && want < maxTableEntries {
		want <<= 1
	}
	if len(t.keys) < want || len(t.keys) > maxTableEntries {
		t.keys = make([]uint64, want)
		t.stamp = make([]int32, want)
		t.epoch = 0
	}
	if t.epoch == math.MaxInt32 {
		clear(t.stamp)
		t.epoch = 0
	}
	t.epoch++
	t.live = 0
}

func (t *pairTable) has(k pairKey) bool {
	key := packPair(k)
	mask := uint64(len(t.keys) - 1)
	for i := pairHash(key) & mask; ; i = (i + 1) & mask {
		if t.stamp[i] != t.epoch {
			return false
		}
		if t.keys[i] == key {
			return true
		}
	}
}

func (t *pairTable) set(k pairKey) {
	if 2*t.live >= len(t.keys) {
		t.grow()
	}
	t.insert(packPair(k))
}

func (t *pairTable) insert(key uint64) {
	mask := uint64(len(t.keys) - 1)
	for i := pairHash(key) & mask; ; i = (i + 1) & mask {
		if t.stamp[i] != t.epoch {
			t.stamp[i] = t.epoch
			t.keys[i] = key
			t.live++
			return
		}
		if t.keys[i] == key {
			return
		}
	}
}

// grow doubles the table mid-round, re-inserting the live epoch's entries.
func (t *pairTable) grow() {
	oldKeys, oldStamp, oldEpoch := t.keys, t.stamp, t.epoch
	t.keys = make([]uint64, 2*len(oldKeys))
	t.stamp = make([]int32, 2*len(oldStamp))
	t.epoch = 1
	t.live = 0
	for i, s := range oldStamp {
		if s == oldEpoch {
			t.insert(oldKeys[i])
		}
	}
}

// pairStamp is an epoch-stamped set of (pattern node, data node) pairs.
// Membership is stamp[u·n+v] == epoch; clearing is epoch++. When the
// dense array would be too large (|Q|·|V| > maxStampEntries) it switches
// to the open-addressing pairTable, so even multi-million-node graphs ×
// wide patterns stay on the allocation-free path. The dense array and the
// table keep separate epoch counters: dense reallocation resets only the
// dense epoch, so stale table entries from earlier queries can never
// collide with a fresh epoch (and vice versa).
type pairStamp struct {
	n        int
	stamp    []int32
	epoch    int32
	live     int // pairs stamped this epoch (dense path; the table counts its own)
	table    pairTable
	useTable bool
}

// reset prepares the stamp for a pattern of nq nodes over n data nodes
// and empties it; hint estimates how many distinct pairs the round may
// stamp (used to size the table in the huge-graph regime).
func (s *pairStamp) reset(nq, n, hint int) {
	need := nq * n
	if s.useTable = need > maxStampEntries || need < 0; s.useTable {
		s.table.reset(hint)
		return
	}
	s.n = n
	if need > len(s.stamp) {
		s.stamp = make([]int32, need)
		s.epoch = 0
	}
	if s.epoch == math.MaxInt32 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
	s.live = 0
}

// count returns how many pairs are live this epoch. Both engine call
// sites probe has() before set(), so the dense path can count sets
// directly without re-checking membership.
func (s *pairStamp) count() int {
	if s.useTable {
		return s.table.live
	}
	return s.live
}

func (s *pairStamp) has(k pairKey) bool {
	if s.useTable {
		return s.table.has(k)
	}
	return s.stamp[int(k.u)*s.n+int(k.v)] == s.epoch
}

func (s *pairStamp) set(k pairKey) {
	if s.useTable {
		s.table.set(k)
		return
	}
	s.stamp[int(k.u)*s.n+int(k.v)] = s.epoch
	s.live++
}

// Scratch carries every transient buffer a reduction run needs. A zero
// Scratch is ready to use; reuse across runs (on the same graph) makes the
// engine allocation-free in steady state. Not safe for concurrent use.
type Scratch struct {
	onStack  pairStamp
	expanded pairStamp
	stack    []pairKey
	cands    []scored
	plabels  []graph.LabelID // pattern labels resolved to the graph's ids
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

type engine struct {
	g    *graph.Graph
	aux  *graph.Aux
	p    *pattern.Pattern
	sem  Semantics
	opts Options
	rng  *rand.Rand

	frag        *graph.Fragment
	sc          *Scratch
	plabels     []graph.LabelID // aliases sc.plabels; plabels[u] = g's id of p's label of u
	budget      int
	visitBudget int
	visited     int
	stats       Stats

	vp         graph.NodeID // the pinned match of the personalized node
	stack      []pairKey
	changed    bool
	exhausted  bool // size budget hit
	visitsDone bool // visit budget hit
	canceled   bool // Options.Interrupt fired
	bound      int
}

// stopVisit accounts one examined data item and reports whether the
// search must stop — the visit budget drained, or the cancellation probe
// (polled every interrupt.Stride visits, so it stays off the per-item
// hot path) observed Options.Interrupt closed.
func (e *engine) stopVisit() bool {
	e.visited++
	if e.visited > e.visitBudget {
		e.visitsDone = true
		return true
	}
	if e.opts.Interrupt != nil && e.visited&(interrupt.Stride-1) == 0 &&
		interrupt.Fired(e.opts.Interrupt) {
		e.canceled = true
		return true
	}
	return false
}

// stopped reports whether a visit budget or a cancellation already ended
// the search; the traversal loops unwind when it turns true.
func (e *engine) stopped() bool { return e.visitsDone || e.canceled }

// stopKind labels a stopVisit halt for tracers: cancellation and visit
// exhaustion are distinct stop causes.
func (e *engine) stopKind() EventKind {
	if e.canceled {
		return EventCanceled
	}
	return EventVisitStop
}

// Search runs the dynamic reduction of Fig. 3 from the personalized match
// vp and returns the extracted fragment and run statistics. The fragment
// is an induced subgraph of aux's graph containing vp (budget permitting).
// Transient engine state is borrowed from aux's scratch pool; only the
// returned fragment is freshly allocated (it escapes to the caller).
func Search(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem Semantics, opts Options) (*graph.Fragment, Stats) {
	pool := aux.ScratchPool(graph.ScratchReduce)
	sc, _ := pool.Get().(*Scratch)
	if sc == nil {
		sc = NewScratch()
	}
	frag := graph.NewFragment(aux.Graph())
	stats := SearchInto(aux, p, nil, vp, sem, opts, frag, sc)
	pool.Put(sc)
	return frag, stats
}

// SearchInto is Search with caller-managed reuse: the reduction runs into
// frag (Reset first; it must belong to aux's graph) using sc for all
// transient state. It allocates nothing once frag and sc have reached
// steady-state capacity.
//
// labels, when non-nil, must be p's labels pre-resolved against aux's
// graph (labels[u] = interned id of p's label of u) — the plan layer
// compiles this once per pattern, and the Semantics values of rbsim and
// rbsub already carry it. A nil labels resolves into sc on entry.
func SearchInto(aux *graph.Aux, p *pattern.Pattern, labels []graph.LabelID, vp graph.NodeID, sem Semantics, opts Options, frag *graph.Fragment, sc *Scratch) Stats {
	g := aux.Graph()
	frag.Reset()
	// Observability bridge: when a parent span is attached, aggregate the
	// event stream into per-round child spans under a "reduce" span,
	// teeing raw events to any user Tracer. One nil test on the trace-off
	// path; everything below allocates only when tracing is on.
	var br *spanTracer
	if opts.Obs != nil {
		br = &spanTracer{parent: opts.Obs.Child(obs.PhaseReduce), user: opts.Trace}
		opts.Trace = br.event
	}
	e := &engine{
		g:    g,
		aux:  aux,
		p:    p,
		sem:  sem,
		opts: opts,
		frag: frag,
		sc:   sc,
		vp:   vp,
	}
	e.budget = int(opts.Alpha * float64(g.Size()))
	e.visitBudget = opts.VisitBudget
	if e.visitBudget <= 0 {
		// Default to the paper's d_G·α|G| with d_G approximated by the
		// graph-wide maximum degree (an upper bound of the ball-local one).
		e.visitBudget = (e.budget + 1) * maxInt(1, g.MaxDegree())
	}
	e.bound = opts.InitialBound
	if e.bound <= 0 {
		e.bound = 2
	}
	if opts.Strategy == WeightRandom {
		e.rng = rand.New(rand.NewSource(opts.Seed))
	}
	// The engine's own label probes (ablation guard, fragment-candidate
	// scans) compare int32s instead of hashing strings per candidate:
	// either the caller compiled the resolution once per pattern (the
	// plan layer) or it is resolved into the scratch here.
	if labels != nil {
		e.plabels = labels
	} else {
		sc.plabels = g.InternLabels(p.Labels(), sc.plabels)
		e.plabels = sc.plabels
	}
	e.stack = sc.stack[:0]
	e.run(vp)
	sc.stack = e.stack // keep grown capacity for the next run
	e.stats.Budget = e.budget
	e.stats.FragmentSize = e.frag.Size()
	e.stats.FragmentNodes = e.frag.NumNodes()
	e.stats.FragmentEdges = e.frag.NumEdges()
	e.stats.Visited = e.visited
	e.stats.FinalBound = e.bound
	e.stats.BudgetExhausted = e.exhausted
	e.stats.VisitsExhausted = e.visitsDone
	e.stats.Canceled = e.canceled
	if br != nil {
		br.finish(e.stats)
	}
	return e.stats
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (e *engine) run(vp graph.NodeID) {
	if e.budget < 1 {
		return
	}
	nq, n := e.p.NumNodes(), e.g.NumNodes()
	for {
		e.stats.Rounds++
		e.emit(EventRound, 0, 0, 0)
		// The table hint tracks the size budget: a round stamps roughly one
		// stack pair per fragment item it can afford (growth covers the
		// overshoot from guard-rejected pushes).
		e.sc.onStack.reset(nq, n, e.budget+1)
		e.sc.expanded.reset(nq, n, e.budget+1)
		e.stack = e.stack[:0]
		e.changed = false
		e.push(pairKey{e.p.Personalized(), vp})
		e.round()
		// Capture the round's live pairs before the next reset wipes them:
		// onStack dominates expanded (every expanded pair was pushed first).
		if hw := e.sc.onStack.count(); hw > e.stats.PairHighWater {
			e.stats.PairHighWater = hw
		}
		if e.exhausted || e.stopped() || !e.changed {
			return
		}
		if e.opts.MaxBound > 0 && e.bound >= e.opts.MaxBound {
			return
		}
		e.bound++ // line 12 of Fig. 3: escalate b and restart from (u_p, v_p)
	}
}

func (e *engine) push(k pairKey) {
	if !e.sc.onStack.has(k) {
		e.sc.onStack.set(k)
		e.stack = append(e.stack, k)
	}
}

// round drains the stack once: the body of the while loop of Fig. 3 for a
// fixed bound b.
func (e *engine) round() {
	for len(e.stack) > 0 {
		k := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if e.stopVisit() { // the pop itself touches one data item
			e.emit(e.stopKind(), k.u, k.v, 0)
			return
		}
		e.emit(EventPop, k.u, k.v, 0)
		// Line 5: add v to G_Q if absent and affordable.
		if !e.frag.Contains(k.v) {
			inc := 1 + e.frag.InducedEdgeCost(k.v)
			if e.frag.Size()+inc > e.budget {
				// Cannot afford this node; the budget is effectively
				// consumed for anything of this or larger footprint.
				e.exhausted = true
				e.emit(EventBudgetStop, k.u, k.v, 0)
				continue
			}
			e.frag.Add(k.v)
			e.changed = true
			e.emit(EventAdd, k.u, k.v, float64(inc))
			if e.frag.Size() >= e.budget {
				e.exhausted = true
				e.emit(EventBudgetStop, k.u, k.v, 0)
				return // line 7: |G_Q| reached α|G|
			}
		}
		if e.sc.expanded.has(k) {
			continue
		}
		e.sc.expanded.set(k)
		// Line 8: expand every pattern edge incident to u, forward and
		// backward.
		for _, uc := range e.p.Out(k.u) {
			e.pick(k.v, uc, graph.Forward)
			if e.stopped() {
				return
			}
		}
		for _, ua := range e.p.In(k.u) {
			e.pick(k.v, ua, graph.Backward)
			if e.stopped() {
				return
			}
		}
	}
}

type scored struct {
	v   graph.NodeID
	deg int32
	w   float64
}

// scoredLess is the frontier ranking: weight descending, then degree
// descending, then id ascending — a strict total order, so any correct
// sort of the top-b is deterministic.
func scoredLess(a, b scored) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.v < b.v
}

// selectTop moves the lim best-ranked candidates (per scoredLess) to
// cands[:lim] in ranked order. O(lim·len): the fairness bound keeps lim
// small (it starts at 2), so this beats a full sort of the frontier and
// involves no reflection.
func selectTop(cands []scored, lim int) {
	for i := 0; i < lim; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if scoredLess(cands[j], cands[best]) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
}

// pick is procedure Pick of Fig. 3: rank the dir-neighbors of v that pass
// the guarded condition for query node target, and push the top-b onto the
// stack, best last (so the best is popped first).
func (e *engine) pick(v graph.NodeID, target pattern.NodeID, dir graph.Direction) {
	// The personalized node is pinned: its only admissible candidate is
	// v_p (Section 2 fixes (u_p, v_p) in every match relation). A single
	// edge-existence probe replaces the neighborhood scan.
	if target == e.p.Personalized() {
		if e.stopVisit() {
			return
		}
		var has bool
		if dir == graph.Forward {
			has = e.g.HasEdge(v, e.vp)
		} else {
			has = e.g.HasEdge(e.vp, v)
		}
		if has {
			e.push(pairKey{target, e.vp})
		}
		return
	}
	var neigh []graph.NodeID
	if dir == graph.Forward {
		neigh = e.g.Out(v)
	} else {
		neigh = e.g.In(v)
	}
	cands := e.sc.cands[:0]
	for _, w := range neigh {
		if e.stopVisit() {
			e.sc.cands = cands[:0]
			e.emit(e.stopKind(), target, w, 0)
			return
		}
		if e.sc.onStack.has(pairKey{target, w}) {
			continue
		}
		if !e.guard(w, target) {
			e.emit(EventGuardReject, target, w, 0)
			continue
		}
		cands = append(cands, scored{w, int32(e.g.Degree(w)), e.weight(w, target)})
	}
	lim := len(cands)
	if lim > e.bound {
		lim = e.bound
	}
	selectTop(cands, lim)
	// Push in reverse so the best-ranked candidate ends on top.
	for i := lim - 1; i >= 0; i-- {
		e.emit(EventPush, target, cands[i].v, cands[i].w)
		e.push(pairKey{target, cands[i].v})
	}
	e.sc.cands = cands[:0]
}

func (e *engine) guard(v graph.NodeID, u pattern.NodeID) bool {
	if e.opts.DisableGuard {
		return e.g.LabelOf(v) == e.plabels[u]
	}
	return e.sem.Guard(v, u)
}

func (e *engine) weight(v graph.NodeID, u pattern.NodeID) float64 {
	switch e.opts.Strategy {
	case WeightDegree:
		return float64(e.g.Degree(v))
	case WeightRandom:
		return e.rng.Float64()
	default:
		return e.sem.Potential(v, u) / (e.cost(v, u) + 1)
	}
}

// cost is c(v,u) of Section 4.1: the number of pattern neighbors u' of u
// that do not yet have a guarded candidate among v's neighbors inside the
// current fragment — i.e. how many more nodes the fragment would need to
// absorb for v to stand a chance of matching u.
func (e *engine) cost(v graph.NodeID, u pattern.NodeID) float64 {
	misses := 0
	for _, uc := range e.p.Out(u) {
		if !e.hasFragCandidate(v, uc, graph.Forward) {
			misses++
		}
	}
	for _, ua := range e.p.In(u) {
		if !e.hasFragCandidate(v, ua, graph.Backward) {
			misses++
		}
	}
	return float64(misses)
}

// hasFragCandidate reports whether some dir-neighbor of v inside the
// current fragment carries u's label. It scans whichever side is smaller:
// v's adjacency list, or the fragment (checking adjacency by binary
// search) — the fragment is capped at α|G|, so hub nodes do not force a
// full neighborhood scan.
func (e *engine) hasFragCandidate(v graph.NodeID, u pattern.NodeID, dir graph.Direction) bool {
	want := e.plabels[u]
	var neigh []graph.NodeID
	if dir == graph.Forward {
		neigh = e.g.Out(v)
	} else {
		neigh = e.g.In(v)
	}
	if len(neigh) <= e.frag.NumNodes()*4 {
		for _, w := range neigh {
			if e.frag.Contains(w) && e.g.LabelOf(w) == want {
				return true
			}
		}
		return false
	}
	for _, w := range e.frag.Nodes() {
		if e.g.LabelOf(w) != want {
			continue
		}
		if dir == graph.Forward && e.g.HasEdge(v, w) {
			return true
		}
		if dir == graph.Backward && e.g.HasEdge(w, v) {
			return true
		}
	}
	return false
}
