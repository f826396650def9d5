package main

import (
	"net/http"
	"sync"
	"time"

	"rbq"
	"rbq/internal/obs"
	"rbq/internal/server"
)

// Span names the benchmark records itself, around its calls into a
// layer. The program's own phase names (obs.Phase*) fill in the rest.
const (
	spanClient  = "client"  // the caller's view: one DB call, or one HTTP round trip
	spanHandler = "handler" // bench middleware around the rbqd handler
)

// span is one timed interval of a request; parent names the span that
// caused it, so a dump can rebuild the tree.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Dur    int64  `json:"dur_ns"`
}

// spanRecord holds every span of one request; its spans share ID.
type spanRecord struct {
	ID    string `json:"id"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"` // since the window opened
	Spans []span `json:"spans"`
	trace *rbq.Trace
}

// tracer holds the traced run's spans in memory until the run ends.
type tracer struct {
	start time.Time

	mu      sync.Mutex
	recs    []spanRecord
	handler map[string]time.Duration // request id -> handler span
}

func newTracer() *tracer { return &tracer{handler: map[string]time.Duration{}} }

// record files a request's client span and the phase tree the program
// returned for it.
func (t *tracer) record(id, op string, start time.Time, total time.Duration, tr *rbq.Trace) {
	t.mu.Lock()
	t.recs = append(t.recs, spanRecord{
		ID: id, Op: op, Start: start.Sub(t.start).Nanoseconds(),
		Spans: []span{{Name: spanClient, Dur: total.Nanoseconds()}},
		trace: tr,
	})
	t.mu.Unlock()
}

// middleware times the rbqd handler for requests that carry a request
// id, so a request's handler span can be joined with its client span.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(server.RequestIDHeader)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if id == "" {
			return
		}
		d := time.Since(t0)
		t.mu.Lock()
		t.handler[id] = d
		t.mu.Unlock()
	})
}

// finish joins handler spans into their records and flattens the phase
// trees; it runs after the window, off the clock.
func (t *tracer) finish() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.recs {
		rec := &t.recs[i]
		if h, ok := t.handler[rec.ID]; ok {
			rec.Spans = append(rec.Spans, span{Name: spanHandler, Parent: spanClient, Dur: h.Nanoseconds()})
		}
		if rec.trace != nil && rec.trace.Root != nil {
			parent := spanClient
			if _, ok := t.handler[rec.ID]; ok {
				parent = spanHandler
			}
			flatten(&rec.Spans, rec.trace.Root, parent)
		}
	}
	return t.recs
}

func flatten(out *[]span, s *obs.Span, parent string) {
	*out = append(*out, span{Name: s.Name, Parent: parent, Dur: s.Dur.Nanoseconds()})
	for _, c := range s.Children {
		flatten(out, c, s.Name)
	}
}

// breakdown is one request split into layer self times that add up to
// its client span exactly. The plan span is timed before the query root
// opens, so it sits beside the root, not inside it.
type breakdown struct {
	total     float64 // client span
	handler   float64
	transport float64 // client − handler (serve-hot)
	caller    float64 // client − plan − query (in-process: the facade call)
	server    float64 // handler − admission − plan − query
	admission float64
	plan      float64
	query     float64 // query root − exec
	exec      float64 // exec − reduce − extract − match
	reduce    float64
	extract   float64
	match     float64
	execTotal float64
}

func us64(ns int64) float64 { return float64(ns) / 1e3 }

// layers computes a request's breakdown from its spans.
func layers(rec *spanRecord) breakdown {
	var b breakdown
	var root, exec int64
	for _, s := range rec.Spans {
		switch {
		case s.Name == spanClient:
			b.total = us64(s.Dur)
		case s.Name == spanHandler:
			b.handler = us64(s.Dur)
		case s.Name == obs.PhaseAdmission:
			b.admission = us64(s.Dur)
		case s.Name == obs.PhasePlan:
			b.plan = us64(s.Dur)
		case s.Name == obs.PhaseQuery:
			root = s.Dur
		case s.Name == obs.PhaseExec:
			exec = s.Dur
		case s.Name == obs.PhaseReduce && s.Parent == obs.PhaseExec:
			b.reduce += us64(s.Dur)
		case s.Name == obs.PhaseExtract && s.Parent == obs.PhaseExec:
			b.extract += us64(s.Dur)
		case s.Name == obs.PhaseMatch && s.Parent == obs.PhaseExec:
			b.match += us64(s.Dur)
		}
	}
	b.execTotal = us64(exec)
	b.query = us64(root - exec)
	b.exec = us64(exec) - b.reduce - b.extract - b.match
	if b.handler > 0 {
		b.transport = b.total - b.handler
		b.server = b.handler - b.admission - b.plan - us64(root)
	} else {
		b.caller = b.total - b.plan - us64(root)
	}
	return b
}

// parts lists a breakdown's additive components.
func (b breakdown) parts() []float64 {
	return []float64{b.transport, b.caller, b.server, b.admission, b.plan, b.query, b.exec, b.reduce, b.extract, b.match}
}

// selfSumFrac attributes the median request across the layers: over the
// requests whose time lies within 5% of the median, it sums each
// layer's median self time and divides by the median request time. It
// is near 1 when the spans account for a typical request. (Over all
// requests, a sum of medians of skewed parts falls short of the median
// of their sum, and the shortfall measures the skew, not the spans.)
func selfSumFrac(bs []breakdown) float64 {
	var tot samples
	for _, b := range bs {
		tot.add(b.total)
	}
	med := tot.median()
	if med == 0 {
		return 0
	}
	var band []breakdown
	for _, b := range bs {
		if b.total >= 0.95*med && b.total <= 1.05*med {
			band = append(band, b)
		}
	}
	if len(band) == 0 {
		return 0
	}
	sum := 0.0
	for i := range band[0].parts() {
		var s samples
		for _, b := range band {
			s.add(b.parts()[i])
		}
		sum += s.median()
	}
	return sum / med
}

// layerNames lists every per-layer metric with its unit; a traced run
// reports all of them, zero where the workload does not exercise the
// layer.
var layerNames = []struct{ name, unit string }{
	{"server.handler_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.admission_wait_us_p99", "us"},
	{"server.rejected_frac", "ratio"},
	{"transport.self_us_p50", "us"},
	{"caller.self_us_p50", "us"},
	{"plan.us_p50", "us"},
	{"plan.hit_rate", "ratio"},
	{"plan.invalidations_per_kq", "count"},
	{"plan.warmer_recompiles", "count"},
	{"reduce.self_us_p50", "us"},
	{"reduce.self_us_p99", "us"},
	{"reduce.visited_per_query", "count"},
	{"reduce.fragment_fill", "ratio"},
	{"reduce.rounds_mean", "count"},
	{"match.extract_us_p50", "us"},
	{"match.us_p50", "us"},
	{"match.us_p99", "us"},
	{"rbany.selectivity_us_p50", "us"},
	{"rbany.wave_us_p50", "us"},
	{"rbany.evaluated_per_candidate", "ratio"},
	{"rbany.discarded_frac", "ratio"},
	{"reach.visited_per_query", "count"},
	{"apply.handler_us_p50", "us"},
	{"apply.handler_us_p99", "us"},
	{"delta.live_ops_mean", "count"},
	{"overlay.exec_us_p50", "us"},
	{"compact.count", "count"},
	{"compact.ms_p50", "ms"},
	{"compact.touched_nodes_mean", "count"},
	{"compact.full_frac", "ratio"},
	{"store.write_bytes_per_op_byte", "ratio"},
	{"store.dir_mb", "MiB"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_ms_per_kop", "ms"},
	{"trace.overhead_us", "us"},
	{"trace.self_sum_frac", "ratio"},
}

// e2eNames lists every end-to-end metric with its unit.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"query_per_s", "1/s"},
	{"sim_p50_us", "us"},
	{"sim_p99_us", "us"},
	{"sub_p50_us", "us"},
	{"sub_p99_us", "us"},
	{"unanchored_p50_us", "us"},
	{"reach_ns", "ns"},
	{"apply_p50_ms", "ms"},
	{"apply_p99_ms", "ms"},
	{"sim_f1", "ratio"},
	{"sub_f1", "ratio"},
	{"reach_recall", "ratio"},
}

// zeroLayers presets every per-layer metric to zero.
func zeroLayers(m metrics) {
	for _, l := range layerNames {
		m.set(l.name, 0, l.unit)
	}
}

// layerStats fills the per-layer metrics a set of traced query records
// gives. Records of op "sim" and "sub" feed the anchored layers,
// "unanchored" the rbany layer.
func layerStats(m metrics, recs []spanRecord) {
	var handler, server, transport, caller, plan, reduce, extract, match, exec samples
	var admission samples
	var bs []breakdown
	var selectivity, wave samples
	var width, discarded int64
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case "sim", "sub":
			b := layers(rec)
			bs = append(bs, b)
			if b.handler > 0 {
				handler.add(b.handler)
				server.add(b.server)
				transport.add(b.transport)
				admission.add(b.admission)
			} else {
				caller.add(b.caller)
			}
			plan.add(b.plan)
			reduce.add(b.reduce)
			extract.add(b.extract)
			match.add(b.match)
			exec.add(b.execTotal)
		case "unanchored":
			walk(rec.trace.Root, func(s *obs.Span) {
				switch s.Name {
				case obs.PhaseSelectivity:
					selectivity.add(us(s.Dur))
				case obs.PhaseWave:
					wave.add(us(s.Dur))
					w, _ := s.Counter("width")
					d, _ := s.Counter("discarded")
					width += w
					discarded += d
				}
			})
		}
	}
	if len(handler) > 0 {
		m.set("server.handler_us_p50", handler.median(), "us")
		m.set("server.self_us_p50", server.median(), "us")
		m.set("server.admission_wait_us_p99", admission.p99(), "us")
		m.set("transport.self_us_p50", transport.median(), "us")
	}
	m.set("caller.self_us_p50", caller.median(), "us")
	m.set("plan.us_p50", plan.median(), "us")
	m.set("reduce.self_us_p50", reduce.median(), "us")
	m.set("reduce.self_us_p99", reduce.p99(), "us")
	m.set("match.extract_us_p50", extract.median(), "us")
	m.set("match.us_p50", match.median(), "us")
	m.set("match.us_p99", match.p99(), "us")
	m.set("overlay.exec_us_p50", exec.median(), "us")
	m.set("rbany.selectivity_us_p50", selectivity.median(), "us")
	m.set("rbany.wave_us_p50", wave.median(), "us")
	if width > 0 {
		m.set("rbany.discarded_frac", float64(discarded)/float64(width), "ratio")
	}
	m.set("trace.self_sum_frac", selfSumFrac(bs), "ratio")
}

func walk(s *obs.Span, f func(*obs.Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		walk(c, f)
	}
}

// reduceCounters accumulates the counters of the reduce span of each
// traced query.
type reduceCounters struct {
	n       int
	visited int64
	fill    float64
	rounds  int64
}

func (c *reduceCounters) add(tr *rbq.Trace) {
	rs := tr.Find(obs.PhaseReduce)
	if rs == nil {
		return
	}
	visited, _ := rs.Counter("visited")
	budget, _ := rs.Counter("budget")
	frag, _ := rs.Counter("fragment_size")
	rounds, _ := rs.Counter("rounds")
	c.n++
	c.visited += visited
	c.rounds += rounds
	if budget > 0 {
		c.fill += float64(frag) / float64(budget)
	}
}

func (c *reduceCounters) set(m metrics) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	m.set("reduce.visited_per_query", float64(c.visited)/n, "count")
	m.set("reduce.fragment_fill", c.fill/n, "ratio")
	m.set("reduce.rounds_mean", float64(c.rounds)/n, "count")
}
