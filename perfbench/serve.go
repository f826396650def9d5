package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"rbq"
	"rbq/internal/server"
)

// simShare is the share of sim requests in the hot mix; the rest are sub.
const simShare = 0.8

// zipfS is the skew of template popularity in the hot mix.
const zipfS = 1.1

// service is the rbqd handler stack over one DB on a loopback listener.
type service struct {
	db   *rbq.DB
	o    *rbq.ReachOracle
	hs   *http.Server
	srv  *server.Server
	url  string
	done chan struct{} // closed when Serve has returned
	dir  string        // durable DB directory, "" in memory
}

// startService mounts server.New(db).Handler(), wrapped by wrap when
// non-nil, on 127.0.0.1 and returns once /healthz answers.
func startService(db *rbq.DB, o *rbq.ReachOracle, dir string, wrap func(http.Handler) http.Handler) (*service, error) {
	srv := server.New(db, server.Config{})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{db: db, o: o, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{}), dir: dir}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	c := newClient(s.url)
	defer c.close()
	status, _, err := c.get(server.RouteHealth)
	if err != nil || status != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("health check: status %d, %v", status, err)
	}
	return s, nil
}

// stop drains the server, waits for Serve to return and closes the DB.
func (s *service) stop() error {
	s.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one keep-alive HTTP connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		url: url,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends body and reads the whole response; the round trip ends
// when the last byte has arrived.
func (c *client) post(path string, body []byte, id string, traced bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if id != "" {
		req.Header.Set(server.RequestIDHeader, id)
	}
	if traced {
		req.Header.Set(server.TraceHeader, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// queryReply is the part of a /v1/query answer the checks read.
type queryReply struct {
	Matches      []int64    `json:"matches"`
	FragmentSize int        `json:"fragment_size"`
	Budget       int        `json:"budget"`
	Trace        *rbq.Trace `json:"trace"`
}

// hotMix draws serve-hot's requests: a template by Zipf
// popularity, then sim or sub.
type hotMix struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newHotMix(seed int64, client, hot int) *hotMix {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &hotMix{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(hot-1))}
}

func (h *hotMix) next() (ti, si int) {
	ti = int(h.zipf.Uint64())
	if h.rng.Float64() >= simShare {
		si = 1
	}
	return ti, si
}

// queryBodies pre-encodes the /v1/query body of every (semantics,
// template) pair, so the client does no encoding in the loop.
func queryBodies(ts []template, alpha float64) ([2][][]byte, error) {
	var out [2][][]byte
	for si, sem := range []string{"sim", "sub"} {
		for _, t := range ts {
			a := int64(t.anchor)
			b, err := json.Marshal(server.QueryRequest{Pattern: t.text, Semantics: sem, Alpha: alpha, Anchor: &a})
			if err != nil {
				return out, err
			}
			out[si] = append(out[si], b)
		}
	}
	return out, nil
}

// readerStats is what one closed-loop query client saw.
type readerStats struct {
	lat, latTraced [2]*series
	rate           *rateMeter
	attempted      int
	failed         int
	rejected       int
	violations     []string
}

// reader runs one closed-loop query client until the deadline; requests
// sent before start are the warm-up, checked but not timed. want, when
// non-nil, holds the in-process answer of every (semantics, template)
// pair, and each HTTP answer must equal it.
func reader(cfg config, c *client, id int, mix *hotMix, bodies [2][][]byte, want [2][][]int64, tr *tracer, start, deadline time.Time, rs *readerStats) {
	window := deadline.Sub(start)
	rs.rate = newRateMeter(start, window)
	for si := range rs.lat {
		rs.lat[si], rs.latTraced[si] = newSeries(start, window), newSeries(start, window)
	}
	corrupt := cfg.corrupt && id == 0
	measured := 0
	for k := 0; time.Now().Before(deadline); k++ {
		ti, si := mix.next()
		measure := !time.Now().Before(start)
		traced := measure && cfg.trace && measured%2 == 0
		rid := "r" + strconv.Itoa(id) + "-" + strconv.Itoa(k)
		rs.attempted++
		t0 := time.Now()
		status, body, err := c.post(server.RouteQuery, bodies[si][ti], rid, traced)
		d := time.Since(t0)
		if err != nil || status != http.StatusOK {
			rs.failed++
			if status == http.StatusTooManyRequests {
				rs.rejected++
			}
			continue
		}
		var rep queryReply
		if err := json.Unmarshal(body, &rep); err != nil {
			rs.failed++
			rs.violations = append(rs.violations, fmt.Sprintf("request %s: undecodable answer: %v", rid, err))
			continue
		}
		if measure {
			measured++
			rs.rate.done(t0.Add(d))
			if traced {
				rs.latTraced[si].add(t0, us(d))
				tr.record(rid, []string{"sim", "sub"}[si], t0, d, rep.Trace)
			} else {
				rs.lat[si].add(t0, us(d))
			}
		}
		if rep.FragmentSize > rep.Budget {
			rs.violations = append(rs.violations, fmt.Sprintf("request %s: fragment %d exceeds budget %d", rid, rep.FragmentSize, rep.Budget))
		}
		if corrupt {
			rep.Matches = append(rep.Matches, -1)
			corrupt = false
		}
		if want[si] != nil && !slices.Equal(rep.Matches, want[si][ti]) {
			rs.violations = append(rs.violations, fmt.Sprintf("request %s: HTTP answer %v differs from in-process answer %v", rid, rep.Matches, want[si][ti]))
		}
	}
}

// merge folds the clients' figures into the report and the metrics.
func mergeReaders(rep *report, rs []*readerStats) (lat, latTraced [2]*series, rate *rateMeter, rejected int) {
	for i, r := range rs {
		if i == 0 {
			lat, latTraced, rate = r.lat, r.latTraced, r.rate
		} else {
			for si := range lat {
				lat[si].merge(r.lat[si])
				latTraced[si].merge(r.latTraced[si])
			}
			rate.merge(r.rate)
		}
		rep.attempted += r.attempted
		rep.failed += r.failed
		rejected += r.rejected
		rep.violations = append(rep.violations, r.violations...)
	}
	return lat, latTraced, rate, rejected
}

// inProcessAnswers evaluates every (semantics, template) pair through
// DB.Query, the reference each HTTP answer must equal.
func inProcessAnswers(ctx context.Context, rep *report, db *rbq.DB, ts []template, alpha float64) [2][][]int64 {
	var out [2][][]int64
	for si, sem := range []rbq.Semantics{rbq.Simulation, rbq.Subgraph} {
		out[si] = make([][]int64, len(ts))
		for ti, t := range ts {
			rep.attempted++
			res, err := db.Query(ctx, t.q, rbq.Request{Semantics: sem, Alpha: alpha, Anchor: rbq.Pin(t.anchor)})
			if err != nil {
				rep.failed++
				rep.violate("in-process reference %s template %d: %v", semName(sem), ti, err)
				continue
			}
			w := make([]int64, len(res.Matches))
			for i, v := range res.Matches {
				w[i] = int64(v)
			}
			out[si][ti] = w
		}
	}
	return out
}

func newClients(url string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(url)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// startReaders runs one closed-loop reader per client until deadline,
// timing the requests sent from start on; the returned wait blocks
// until all have stopped and returns their figures.
func (sc *serveCommon) startReaders(cfg config, clients []*client, want [2][][]int64, start, deadline time.Time) (wait func() []*readerStats) {
	rs := make([]*readerStats, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		rs[i] = &readerStats{}
		mix := newHotMix(cfg.seed, i, len(sc.in.hot))
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader(cfg, c, i, mix, sc.bodies, want, sc.tr, start, deadline, rs[i])
		}()
	}
	return func() []*readerStats {
		wg.Wait()
		return rs
	}
}

// warmUp sends every (semantics, template) pair once, so that the plan
// cache holds every hot template and the connection is open.
func warmUp(rep *report, c *client, bodies [2][][]byte) {
	for si := range bodies {
		for ti := range bodies[si] {
			rep.attempted++
			if status, _, err := c.post(server.RouteQuery, bodies[si][ti], "", false); err != nil || status != http.StatusOK {
				rep.failed++
			}
		}
	}
}

// serveCommon holds what serve-hot does before and after its
// window.
type serveCommon struct {
	in     *input
	bodies [2][][]byte
	tr     *tracer
}

func newServeCommon(cfg config, rep *report) (*serveCommon, error) {
	in, err := makeInput(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	in.params(rep, cfg)
	cfg.logf("inputs generated")
	bodies, err := queryBodies(in.hot, in.alpha)
	if err != nil {
		return nil, err
	}
	rep.param("zipf_s", zipfS)
	rep.param("sim_share", simShare)
	rep.param("unanchored_probe", cfg.sc.unanchoredProbe)
	rep.param("accuracy_probe_templates", cfg.sc.accuracyProbe)
	return &serveCommon{in: in, bodies: bodies, tr: newTracer()}, nil
}

func (sc *serveCommon) wrap(cfg config) func(http.Handler) http.Handler {
	if !cfg.trace {
		return nil
	}
	return sc.tr.middleware
}

// probeSlices is how many turns serve-hot's two timed probes take. They
// alternate, so that each spans the whole probe time and a slow spell
// of a shared host, which lasts seconds, moves both a little rather
// than one of them a lot.
const probeSlices = 10

// timedProbes times, in process and before the window while nothing
// else runs, the operations the serve mix does not issue: Unanchored
// queries over the hot templates and reachability queries.
func (sc *serveCommon) timedProbes(ctx context.Context, cfg config, rep *report, s *service) {
	un := newSeries(time.Now(), cfg.sc.unanchoredProbe+cfg.sc.reachProbe)
	rm := &reachMeter{pairs: sc.in.reach}
	for !rm.checked {
		rm.batch(rep, s.o, false)
	}
	for i := 0; i < probeSlices; i++ {
		unanchoredProbe(ctx, rep, s.db, sc.in.hot, sc.in.alpha, cfg.sc.unanchoredProbe/probeSlices, un)
		for end := time.Now().Add(cfg.sc.reachProbe / probeSlices); time.Now().Before(end); {
			rm.batch(rep, s.o, true)
		}
	}
	rep.e2e.set("unanchored_p50_us", un.quantile(0.5), "us")
	rep.e2e.set("reach_ns", rm.ns.median(), "ns")
	rep.e2e.set("reach_recall", rm.recall(), "ratio")
	cfg.logf("unanchored and reach probes done")
}

// accuracy scores bounded answers against exact ones on the DB's
// snapshot, after the window.
func (sc *serveCommon) accuracy(ctx context.Context, cfg config, rep *report, s *service) {
	simF1, subF1 := accuracyProbe(ctx, rep, s.db, sc.in.cold[:cfg.sc.accuracyProbe], sc.in.alpha)
	rep.e2e.set("sim_f1", simF1, "ratio")
	rep.e2e.set("sub_f1", subF1, "ratio")
	cfg.logf("accuracy probe done")
}

// runServeHot is the HTTP serving tier under a hot, read-only mix:
// closed-loop clients (one per CPU) on one keep-alive connection each,
// 16 templates drawn by Zipf popularity, so every plan lookup hits and
// the engine is a small part of a request. server, the transport and
// the runtime do most of the work, which paper-cold bypasses. A write
// probe after the window posts batches to /v1/apply on the durable DB
// (HTTP, delta, WAL fsync and compaction).
func runServeHot(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	sc, err := newServeCommon(cfg, rep)
	if err != nil {
		return nil, err
	}
	in := sc.in
	rep.param("clients", cfg.sc.clients)
	rep.param("loop", "closed")
	rep.param("write_probe_batches", cfg.sc.writeProbe)
	rep.param("sync", "SyncBatch (every ack fsynced)")
	rep.param("compact_threshold", cfg.sc.compactThreshold)

	root := filepath.Join(cfg.dir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	setups := 0
	s, setup, err := timeSetups(cfg.sc.setups, func() (*service, error) {
		setups++
		dir := filepath.Join(root, strconv.Itoa(setups))
		db, err := rbq.OpenDB(dir, rbq.OpenOptions{Bootstrap: in.g, Sync: rbq.SyncBatch})
		if err != nil {
			return nil, err
		}
		db.SetCompactThreshold(cfg.sc.compactThreshold)
		return startService(db, db.BuildReachOracle(in.alpha), dir, sc.wrap(cfg))
	}, func(s *service) {
		_ = s.stop()
		_ = os.RemoveAll(s.dir)
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = s.stop()
		}
	}()
	rep.e2e.set("setup_s", setup, "s")
	rep.e2e.set("heap_mb", liveHeapMB(), "MiB")
	cfg.logf("set up %d times", cfg.sc.setups)

	want := inProcessAnswers(ctx, rep, s.db, in.hot, in.alpha)
	clients := newClients(s.url, cfg.sc.clients)
	defer closeClients(clients)
	warmUp(rep, clients[0], sc.bodies)
	sc.timedProbes(ctx, cfg, rep, s)

	start := time.Now().Add(warmup(cfg.window))
	sc.tr.start = start
	wait := sc.startReaders(cfg, clients, want, start, start.Add(cfg.window))
	time.Sleep(time.Until(start))
	pc0 := s.db.PlanCacheStats()
	before := readProc()
	rs := wait()
	after := readProc()
	pc1 := s.db.PlanCacheStats()
	lat, latTraced, rate, rejected := mergeReaders(rep, rs)
	queries := lat[0].len() + lat[1].len() + latTraced[0].len() + latTraced[1].len()

	cfg.logf("window closed after %d queries", queries)
	rep.e2e.set("query_per_s", rate.perSecond(), "1/s")
	setLatencies(rep.e2e, lat)
	sc.accuracy(ctx, cfg, rep, s)

	// Write probe: closed-loop /v1/apply on the durable DB.
	w := newWriter(in.g, cfg.seed)
	var acked uint64
	applyLat := applyProbe(rep, w, cfg.sc.batchOps, cfg.sc.writeProbe, cfg.sc.writeWarmup, func(i int, ops []rbq.Op) error {
		id := ""
		if cfg.trace && i >= 0 {
			id = "w" + strconv.Itoa(i)
		}
		t0 := time.Now()
		status, resp, err := clients[0].post(server.RouteApply, encodeOps(ops), id, false)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if id != "" {
			sc.tr.record(id, "apply", t0, time.Since(t0), nil)
		}
		if err == nil {
			acked++
		}
		return err
	})
	rep.e2e.set("apply_p50_ms", applyLat.median(), "ms")
	rep.e2e.set("apply_p99_ms", applyLat.p99(), "ms")

	// Every acked batch must survive the server's drain and a reopen.
	stopped = true
	if err := s.stop(); err != nil {
		rep.violate("shutdown: %v", err)
	}
	if cfg.corrupt {
		acked++
	}
	checkReopen(rep, s.dir, in.g, w, acked)
	cfg.logf("write probe done")

	if cfg.trace {
		recs := sc.tr.finish()
		serveLayers(rep, recs, lat, latTraced, rejected, queries, pc0, pc1, before, after)
		applyHandlerLayers(rep.layer, recs)
		if err := dumpSpans(cfg, recs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func setLatencies(m metrics, lat [2]*series) {
	m.set("sim_p50_us", lat[0].quantile(0.5), "us")
	m.set("sim_p99_us", lat[0].quantile(0.99), "us")
	m.set("sub_p50_us", lat[1].quantile(0.5), "us")
	m.set("sub_p99_us", lat[1].quantile(0.99), "us")
}

// serveLayers fills serve-hot's per-layer metrics.
func serveLayers(rep *report, recs []spanRecord, lat, latTraced [2]*series, rejected, queries int, pc0, pc1 rbq.PlanCacheStats, before, after procStats) {
	zeroLayers(rep.layer)
	var q []spanRecord
	var rc reduceCounters
	for _, r := range recs {
		if r.Op == "sim" || r.Op == "sub" {
			q = append(q, r)
			rc.add(r.trace)
		}
	}
	layerStats(rep.layer, q)
	rc.set(rep.layer)
	planLayer(rep.layer, pc0, pc1, queries)
	runtimeMetrics(rep.layer, before, after, queries)
	rep.layer.set("server.rejected_frac", float64(rejected)/float64(max(1, queries+rejected)), "ratio")
	rep.layer.set("trace.overhead_us", latTraced[0].quantile(0.5)-lat[0].quantile(0.5), "us")
}

// writeLayers gathers the write side's per-layer figures from the DB's
// MutationStats after each acked batch.
type writeLayers struct {
	liveOps, compactNs, touched samples
	full                        int
	compactions                 uint64
	seen                        bool
}

func (wl *writeLayers) observe(ms rbq.MutationStats) {
	wl.liveOps.add(float64(ms.LiveDeltaOps))
	if wl.seen && ms.Compactions != wl.compactions {
		wl.compactNs.add(float64(ms.LastCompactNs))
		wl.touched.add(float64(ms.LastCompactTouchedNodes))
		if ms.Mode == rbq.CompactModeFull {
			wl.full++
		}
	}
	wl.compactions, wl.seen = ms.Compactions, true
}

func (wl *writeLayers) set(m metrics) {
	m.set("delta.live_ops_mean", wl.liveOps.mean(), "count")
	m.set("compact.count", float64(len(wl.compactNs)), "count")
	m.set("compact.ms_p50", wl.compactNs.median()/1e6, "ms")
	m.set("compact.touched_nodes_mean", wl.touched.mean(), "count")
	if n := len(wl.compactNs); n > 0 {
		m.set("compact.full_frac", float64(wl.full)/float64(n), "ratio")
	}
}

// applyHandlerLayers reports the handler spans of apply requests.
func applyHandlerLayers(m metrics, recs []spanRecord) {
	var h samples
	for i := range recs {
		if recs[i].Op != "apply" {
			continue
		}
		for _, s := range recs[i].Spans {
			if s.Name == spanHandler {
				h.add(us64(s.Dur))
			}
		}
	}
	m.set("apply.handler_us_p50", h.median(), "us")
	m.set("apply.handler_us_p99", h.p99(), "us")
}

// checkReopen reopens the closed DB directory and checks that it holds
// exactly the acked batches: the WAL sequence equals the ack count, and
// the edge set is the base plus the writer's live additions.
func checkReopen(rep *report, dir string, base *rbq.Graph, w *writer, acked uint64) {
	db, err := rbq.OpenDB(dir, rbq.OpenOptions{Sync: rbq.SyncBatch})
	if err != nil {
		rep.violate("reopen: %v", err)
		return
	}
	defer db.Close()
	if seq := db.MutationStats().Seq; seq != acked {
		rep.violate("reopen: WAL sequence %d, but %d batches were acked", seq, acked)
	}
	g := db.Graph()
	if want := base.NumEdges() + len(w.live); g.NumEdges() != want {
		rep.violate("reopen: %d edges, want %d (base %d + %d live writer edges)", g.NumEdges(), want, base.NumEdges(), len(w.live))
	}
	for _, e := range w.live {
		if !g.HasEdge(e[0], e[1]) {
			rep.violate("reopen: acked edge %d->%d missing", e[0], e[1])
			break
		}
	}
}

func dirSize(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk (compaction) is skipped
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return float64(n)
}
