package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"openbi/internal/core"
	"openbi/internal/kb"
	"openbi/internal/provenance"
	"openbi/internal/server"
)

// Both serve workloads drive an in-process server, configured as `openbi
// serve` is at its defaults, over loopback HTTP from a closed loop of
// serveConns connections.
const (
	serveWarmup    = time.Second
	setupRepeats   = 15
	requestTimeout = 10 * time.Second
)

// serveConns is the closed loop's connection count: 2, or fewer on a
// smaller box.
func serveConns() int { return min(2, runtime.NumCPU()) }

// kbFiles is the knowledge base the serve workloads load: the default grid
// built from the run's seed, written with its manifest as cmdExperiments
// writes them.
type kbFiles struct {
	path, manifestPath string
	root               string // the manifest's Merkle root
	snap               *kb.Snapshot
}

func prepareKB(r *run) (*kbFiles, error) {
	ds, err := makeDataset(kbRows, kbSeed(r.seed, 0))
	if err != nil {
		return nil, err
	}
	b, err := buildKB(ds, kbSeed(r.seed, 0), kbFolds)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, "kb.json")
	if err := os.WriteFile(path, b.doc, 0o644); err != nil {
		return nil, err
	}
	var mb bytes.Buffer
	if err := b.manifest.Save(&mb); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path+".manifest", mb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &kbFiles{path: path, manifestPath: path + ".manifest", root: b.manifest.MerkleRoot, snap: b.base.Snapshot()}, nil
}

// instance is one running server.
type instance struct {
	url  string
	stop func() error
}

// startServer does what `openbi serve` does at start-up — read the KB,
// load it into a fresh engine, verify the manifest beside it — then serves
// on a loopback port until /healthz reports ready. With a recorder, the
// server is mounted behind a handler that records one span per request
// (same http.Server settings as Server.Serve).
func startServer(k *kbFiles, rec *recorder) (*instance, error) {
	doc, err := os.ReadFile(k.path)
	if err != nil {
		return nil, err
	}
	eng, err := core.New()
	if err != nil {
		return nil, err
	}
	if err := eng.LoadKB(bytes.NewReader(doc)); err != nil {
		return nil, err
	}
	m, err := verifyManifest(doc, k.manifestPath)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(eng,
		server.WithKBPath(k.path),
		server.WithCacheSize(1024),
		server.WithBatchWindow(2*time.Millisecond),
		server.WithBatchMaxSize(64),
		server.WithRequestTimeout(10*time.Second),
		server.WithDrainTimeout(10*time.Second),
		server.WithMaxInflight(64),
		server.WithManifest(m))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	if rec == nil {
		go func() { done <- srv.Serve(ctx, ln) }()
	} else {
		hs := &http.Server{Handler: &tracedHandler{next: srv, rec: rec}, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			served := make(chan error, 1)
			go func() { served <- hs.Serve(ln) }()
			<-ctx.Done()
			drain, stop := context.WithTimeout(context.Background(), 10*time.Second)
			defer stop()
			err := hs.Shutdown(drain)
			srv.Close()
			<-served
			done <- err
		}()
	}
	inst := &instance{url: "http://" + ln.Addr().String(), stop: func() error {
		cancel()
		return <-done
	}}
	if err := waitReady(inst.url); err != nil {
		_ = inst.stop()
		return nil, err
	}
	return inst, nil
}

// verifyManifest applies serve's start-up policy: the manifest beside the
// KB must verify against the exact bytes; unsigned is accepted (no key is
// pinned).
func verifyManifest(doc []byte, path string) (*provenance.Manifest, error) {
	m, err := provenance.LoadFile(path)
	if err != nil {
		return nil, err
	}
	base, err := kb.Load(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	if err := kb.VerifyManifest(m, doc, base); err != nil {
		return nil, err
	}
	if err := m.VerifySignature(nil); err != nil && !errors.Is(err, provenance.ErrUnsigned) {
		return nil, err
	}
	return m, nil
}

func waitReady(url string) error {
	c := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			var h struct {
				Ready bool `json:"ready"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Ready {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("server at %s not ready after 10s", url)
}

// startTimed is the serve workloads' set-up: it starts the server
// setupRepeats times (KB read and load, manifest verification, server
// construction, listen, until /healthz is ready), keeps the last instance
// and returns the median start-up time in seconds.
func startTimed(k *kbFiles) (*instance, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		inst, err := startServer(k, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return inst, median(times), nil
		}
		if err := inst.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// tracedHandler records a server-side span per request. Its request id
// comes from the X-Bench-Req header so the span can be linked to the
// client's.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, req)
	t1 := time.Now()
	id, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
	h.rec.add("server"+req.URL.Path, -1, id, t0, t1)
}

// ---- the closed loop ----

type kind int

const (
	kindAdvise kind = iota
	kindCSV
	kindLOD
	kindReload
	nKinds
)

var kindNames = [nKinds]string{"advise", "csv_profile", "lod_profile", "reload"}

// op is one scripted request. Advise responses are checked after the run
// against the vector asked about; other kinds carry their own check.
type op struct {
	kind   kind
	path   string
	ctype  string
	body   []byte
	advice vecKey
	check  func(body []byte) error
}

// script returns connection w's i-th request. It is deterministic in
// (w, i) when each connection's requests are asked for in order, so the
// run can be replayed afterwards to check the advice it received.
type script func(w, i int) op

const (
	// sliceLen cuts the measured window into slices; rates and per-op costs
	// are medians over slices, so a short burst of interference from
	// outside the process moves one slice, not the run.
	sliceLen = time.Second
	// tailChunk is how many consecutive advise requests of one connection
	// a latency estimate uses (ten beyond its p99); op_p50_ms and op_p95_ms
	// are medians over chunks.
	tailChunk = 1000
)

// loadStats is what one closed-loop drive measured. Its size does not grow
// with the number of advise requests, so the client's bookkeeping does not
// inflate the process's memory as the server gets faster.
type loadStats struct {
	window     windowStats
	slices     []counterDelta
	sliceDone  [][nKinds]int // completions per slice
	done       [nKinds]int   // completions inside the window
	p50s, p95s []float64     // per chunk of advise latencies, ms
	p99s       []float64
	adviseSum  float64           // ms, over advise requests started inside the window
	adviseN    int               // advise requests started inside the window
	lat        [nKinds][]float64 // ms, other kinds' requests started inside the window
	attempted  int64             // every request, warm-up included
	failed     int64
	failures   []string
}

// perSlice returns the median over the window's slices of f(slice, advise
// requests completed in it); with no whole slice it uses the full window.
func (s *loadStats) perSlice(f func(d counterDelta, n int) float64) float64 {
	if len(s.slices) == 0 {
		return f(s.window.counterDelta, max(s.done[kindAdvise], 1))
	}
	xs := make([]float64, len(s.slices))
	for i, d := range s.slices {
		xs[i] = f(d, max(s.sliceDone[i][kindAdvise], 1))
	}
	return median(xs)
}

func (s *loadStats) adviseRate() float64 {
	return s.perSlice(func(d counterDelta, n int) float64 { return float64(n) / d.wall().Seconds() })
}

func (s *loadStats) adviseP50() float64  { return median(s.p50s) }
func (s *loadStats) adviseP95() float64  { return median(s.p95s) }
func (s *loadStats) adviseP99() float64  { return median(s.p99s) }
func (s *loadStats) adviseMean() float64 { return s.adviseSum / float64(max(s.adviseN, 1)) }

// drive runs the closed loop: serveConns connections, each sending its
// next scripted request when the previous one has completed, for warmup
// plus measure. Statistics cover the measured window only; every response,
// warm-up included, is checked — advise responses after the window closes,
// by replaying a fresh script from mk against snap.
func drive(url string, warmup, measure time.Duration, mk func() script, snap *kb.Snapshot, rec *recorder) *loadStats {
	conns := serveConns()
	debug.FreeOSMemory() // start from the serving heap, not set-up's garbage
	tStart := time.Now().Add(warmup)
	tEnd := tStart.Add(measure)
	nSlices := int(measure / sliceLen)
	next := mk()
	logs := make([]connLog, conns)
	var wg sync.WaitGroup
	for w := range conns {
		logs[w] = connLog{tStart: tStart, tEnd: tEnd, sliceDone: make([][nKinds]int, nSlices)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[w].run(url, w, next, rec)
		}()
	}
	time.Sleep(time.Until(tStart))
	st := &loadStats{sliceDone: make([][nKinds]int, nSlices)}
	win := openWindow()
	prev := win.start
	for i := 1; i <= nSlices; i++ {
		time.Sleep(time.Until(tStart.Add(time.Duration(i) * sliceLen)))
		cur := readCounters()
		st.slices = append(st.slices, cur.since(prev))
		prev = cur
	}
	time.Sleep(time.Until(tEnd))
	st.window = win.close()
	wg.Wait()
	replay := mk()
	for w := range logs {
		l := &logs[w]
		st.attempted += l.attempted
		st.failed += l.failed
		st.failures = append(st.failures, l.failures...)
		for k := range nKinds {
			st.done[k] += l.done[k]
			st.lat[k] = append(st.lat[k], l.lat[k]...)
			for i := range st.sliceDone {
				st.sliceDone[i][k] += l.sliceDone[i][k]
			}
		}
		st.p50s = append(st.p50s, l.p50s...)
		st.p95s = append(st.p95s, l.p95s...)
		st.p99s = append(st.p99s, l.p99s...)
		st.adviseSum += l.adviseSum
		st.adviseN += l.adviseN
		if err := l.verifyAdvice(w, replay, snap); err != nil {
			st.failed++
			st.failures = append(st.failures, err.Error())
		}
	}
	if len(st.p50s) == 0 && len(logs) > 0 {
		// Less than one chunk per connection: estimate from what there is.
		for _, l := range logs {
			st.p50s = append(st.p50s, quantile(l.chunk, 0.5))
			st.p95s = append(st.p95s, quantile(l.chunk, 0.95))
			st.p99s = append(st.p99s, quantile(l.chunk, 0.99))
		}
	}
	return st
}

// connLog is one connection's measurements and checks.
type connLog struct {
	tStart, tEnd time.Time
	sliceDone    [][nKinds]int
	done         [nKinds]int
	chunk        []float64 // advise latencies of the current chunk, ms
	p50s, p95s   []float64
	p99s         []float64
	adviseSum    float64
	adviseN      int
	lat          [nKinds][]float64

	// issued is how many requests the connection sent; adviceSum adds up
	// the hashes of the "advice" values of its successful advise
	// responses, and skip lists the advise requests that failed otherwise
	// (they are left out of the replayed sum).
	issued    int
	adviceSum uint64
	skip      map[int]bool

	attempted, failed int64
	failures          []string
}

func (l *connLog) fail(msg string) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, msg)
	}
}

func (l *connLog) run(url string, w int, next script, rec *recorder) {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	c := &http.Client{Transport: tr, Timeout: requestTimeout}
	defer c.CloseIdleConnections()
	l.chunk = make([]float64, 0, tailChunk)
	for i := 0; time.Now().Before(l.tEnd); i++ {
		o := next(w, i)
		l.issued = i + 1
		req, err := http.NewRequest(http.MethodPost, url+o.path, bytes.NewReader(o.body))
		if err != nil {
			l.attempted++
			l.fail(err.Error())
			l.skipAdvice(o, i)
			continue
		}
		if o.ctype != "" {
			req.Header.Set("Content-Type", o.ctype)
		}
		id := int64(w)<<32 | int64(i+1) // 0 marks requests from outside the loop
		req.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
		t0 := time.Now()
		status, body, err := roundTrip(c, req)
		t1 := time.Now()
		if rec != nil {
			rec.add("client."+kindNames[o.kind], -1, id, t0, t1)
		}
		l.attempted++
		switch {
		case err != nil:
			l.fail(fmt.Sprintf("%s: %v", kindNames[o.kind], err))
			l.skipAdvice(o, i)
		case status != http.StatusOK:
			l.fail(fmt.Sprintf("%s: HTTP %d: %.200s", kindNames[o.kind], status, body))
			l.skipAdvice(o, i)
		case o.kind == kindAdvise:
			l.adviceSum += adviceHash(body)
		default:
			if err := o.check(body); err != nil {
				l.fail(fmt.Sprintf("%s: %v", kindNames[o.kind], err))
			}
		}
		l.observe(o.kind, t0, t1)
	}
}

func (l *connLog) skipAdvice(o op, i int) {
	if o.kind != kindAdvise {
		return
	}
	if l.skip == nil {
		l.skip = map[int]bool{}
	}
	l.skip[i] = true
}

// observe files one request's timing: completions by slice, latency of
// requests started inside the window.
func (l *connLog) observe(k kind, t0, t1 time.Time) {
	if !t1.Before(l.tStart) && t1.Before(l.tEnd) {
		l.done[k]++
		if i := int(t1.Sub(l.tStart) / sliceLen); i < len(l.sliceDone) {
			l.sliceDone[i][k]++
		}
	}
	if t0.Before(l.tStart) || !t0.Before(l.tEnd) {
		return
	}
	d := ms(t1.Sub(t0))
	if k != kindAdvise {
		l.lat[k] = append(l.lat[k], d)
		return
	}
	l.adviseSum += d
	l.adviseN++
	l.chunk = append(l.chunk, d)
	if len(l.chunk) == tailChunk {
		l.p50s = append(l.p50s, quantile(l.chunk, 0.5))
		l.p95s = append(l.p95s, quantile(l.chunk, 0.95))
		l.p99s = append(l.p99s, quantile(l.chunk, 0.99))
		l.chunk = l.chunk[:0]
	}
}

func roundTrip(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ---- advice verification ----

// vecKey is a severity vector on the 0.01 grid, one byte per criterion in
// dq.AllCriteria order.
type vecKey [7]uint8

func (k vecKey) vector() []float64 {
	v := make([]float64, len(k))
	for i, n := range k {
		v[i] = float64(n) / 100
	}
	return v
}

// body renders the vector as an advise request; the float64 the server
// parses from "0.12" equals 12/100, so it scores exactly vector().
func (k vecKey) body() []byte {
	b := []byte(`{"severities":[`)
	for i, x := range k.vector() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'f', -1, 64)
	}
	return append(b, "]}"...)
}

// adviceHash hashes the "advice" value of an advise response. The value is
// cut out by matching brackets when the response starts with it, and
// decoded otherwise.
func adviceHash(body []byte) uint64 {
	if raw, ok := adviceValue(body); ok {
		return hash64(raw)
	}
	var resp struct {
		Advice json.RawMessage `json:"advice"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0
	}
	return hash64(resp.Advice)
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// adviceValue cuts the value of a leading "advice" member out of an advise
// response by matching brackets outside strings.
func adviceValue(body []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"advice":`))
	if !ok {
		return nil, false
	}
	depth, inStr, esc := 0, false, false
	for i, c := range rest {
		switch {
		case esc:
			esc = false
		case inStr && c == '\\':
			esc = true
		case c == '"':
			inStr = !inStr
		case inStr:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth--; depth == 0 {
				return rest[:i+1], true
			}
		}
	}
	return nil, false
}

// verifyAdvice replays connection w's script over the requests it sent and
// checks that the advice it received adds up to the advice a direct
// Snapshot.AdviseSeverities call gives for the same vectors (json.Marshal,
// hashed). Any response that differs breaks the sum.
func (l *connLog) verifyAdvice(w int, replay script, snap *kb.Snapshot) error {
	memo := map[vecKey]uint64{}
	var want uint64
	for i := range l.issued {
		o := replay(w, i)
		if o.kind != kindAdvise || l.skip[i] {
			continue
		}
		h, ok := memo[o.advice]
		if !ok {
			b, err := expectedAdvice(snap, o.advice.vector())
			if err != nil {
				return err
			}
			h = hash64(b)
			if len(memo) < 4096 {
				memo[o.advice] = h
			}
		}
		want += h
	}
	if want != l.adviceSum {
		return fmt.Errorf("connection %d: advice differs from Snapshot.AdviseSeverities in at least one of its responses", w)
	}
	return nil
}

func expectedAdvice(snap *kb.Snapshot, vec []float64) ([]byte, error) {
	a, err := snap.AdviseSeverities(vec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(a)
}

// ---- advise-miss ----

// adviseMissScript draws every connection's vectors uniformly on the 0.01
// grid from its own seeded generator. With 101^7 grid points, a run
// repeats a vector (and hits the cache) with negligible probability.
func adviseMissScript(seed int64) script {
	rngs := make([]*rand.Rand, serveConns())
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed*7919 + int64(w)))
	}
	return func(w, i int) op {
		key := randomKey(rngs[w])
		return op{kind: kindAdvise, path: "/v1/advise", ctype: "application/json", body: key.body(), advice: key}
	}
}

func randomKey(rng *rand.Rand) vecKey {
	var key vecKey
	for j := range key {
		key[j] = uint8(rng.Intn(101))
	}
	return key
}

func runAdviseMiss(r *run) error {
	k, err := prepareKB(r)
	if err != nil {
		return err
	}
	mk := func() script { return adviseMissScript(r.seed) }
	if r.traced {
		return serveTraced(r, k, mk, nil)
	}
	return serveUntraced(r, k, mk)
}

// serveUntraced is the untraced run of a serve workload.
func serveUntraced(r *run, k *kbFiles, mk func() script) error {
	inst, setupS, err := startTimed(k)
	if err != nil {
		return err
	}
	st := drive(inst.url, serveWarmup, r.seconds, mk, k.snap, nil)
	if err := finish(r, st, inst); err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("ops_per_s", st.adviseRate())
	r.set("op_p50_ms", st.adviseP50())
	r.set("op_p95_ms", st.adviseP95())
	r.set("cpu_ms_per_op", st.perSlice(func(d counterDelta, n int) float64 { return ms(d.cpu) / float64(n) }))
	r.set("alloc_kb_per_op", st.perSlice(func(d counterDelta, n int) float64 { return float64(d.alloc) / 1024 / float64(n) }))
	r.set("peak_rss_mb", float64(st.window.peakRSS)/(1<<20))
	r.note("advise_rps", st.adviseRate(), "req/s", fmt.Sprintf("median of %d one-second slices; %d connections, closed loop", len(st.slices), serveConns()))
	r.note("advise_p50_ms", st.adviseP50(), "ms", fmt.Sprintf("median of %d chunks of %d requests", len(st.p50s), tailChunk))
	r.note("advise_p95_ms", st.adviseP95(), "ms", fmt.Sprintf("median chunk p95; %s", tailNote(st.adviseN, 0.95)))
	r.note("advise_p99_ms", st.adviseP99(), "ms", fmt.Sprintf("median chunk p99; %s", tailNote(st.adviseN, 0.99)))
	r.note("window cpu_ms/advise", ms(st.window.cpu)/float64(max(st.done[kindAdvise], 1)), "ms", "whole window")
	for _, kd := range []kind{kindCSV, kindLOD} {
		if l := st.lat[kd]; len(l) > 0 {
			r.note(kindNames[kd]+"_p50_ms", median(l), "ms", "")
			r.note(kindNames[kd]+"_p90_ms", quantile(l, 0.9), "ms", tailNote(len(l), 0.9))
		}
	}
	if l := st.lat[kindReload]; len(l) > 0 {
		r.note("reload_p50_ms", median(l), "ms", fmt.Sprintf("n=%d", len(l)))
	}
	r.note("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", "")
	return nil
}

// finish stops the server and folds the drive's outcome into the run.
func finish(r *run, st *loadStats, inst *instance) error {
	r.attempted += st.attempted
	r.failed += st.failed
	r.failures = append(r.failures, st.failures...)
	return inst.stop()
}
