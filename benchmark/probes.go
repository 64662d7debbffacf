package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/kb"
	"openbi/internal/provenance"
	"openbi/internal/rdf"
	"openbi/internal/server"
	"openbi/internal/table"
)

// serveTraced is the traced run of a serve workload. It drives the same
// script twice for half the run each, on fresh servers: untraced, then
// traced (client and server spans per request). The per-layer numbers come
// from the traced half, GET /v1/metrics of the traced server, and probes
// that time single layers on the workload's own inputs.
func serveTraced(r *run, k *kbFiles, mk func() script, mixed *mixedInputs) error {
	half := max(r.seconds/2, time.Second)

	inst, err := startServer(k, nil)
	if err != nil {
		return err
	}
	plain := drive(inst.url, serveWarmup, half, mk, k.snap, nil)
	if err := finish(r, plain, inst); err != nil {
		return err
	}

	rec := newRecorder()
	inst, err = startServer(k, rec)
	if err != nil {
		return err
	}
	traced := drive(inst.url, serveWarmup, half, mk, k.snap, rec)
	m, err := fetchMetrics(inst.url)
	if err != nil {
		return err
	}
	if err := finish(r, traced, inst); err != nil {
		return err
	}
	clientSelf := linkSpans(rec)

	ap, err := adviseProbes(k, probeKeys(r, mixed))
	if err != nil {
		return err
	}
	adv := m.Endpoints["advise"]
	clientP50 := traced.adviseP50()
	r.set("server.handler_p50_ms", adv.P50Ms)
	r.set("server.handler_p99_ms", adv.P99Ms)
	r.set("server.net_p50_ms", clientP50-adv.P50Ms)
	r.set("server.batch_size_mean", m.MeanBatchSize)
	r.set("server.decode_us", us(ap.decode))
	r.set("kb.advise_us", us(ap.advise))
	r.set("server.encode_us", us(ap.encode))
	r.set("server.inproc_handler_us", us(ap.inproc))
	r.set("server.cache_hit_ratio", m.CacheHitRate)
	if m.Reloads > 0 {
		// Misses per cold-cache episode: the start and each reload.
		r.set("server.rewarm_misses", float64(m.CacheMisses)/float64(m.Reloads+1))
	}
	r.set("runtime.gc_cpu_fraction", plain.window.gcCPUFrac)
	r.set("runtime.gc_pause_p99_ms", ms(plain.window.gcPauseP99))
	r.note("untraced advise p50/p99", plain.adviseP50(), "ms",
		fmt.Sprintf("p99 %.3f ms, %.0f req/s", plain.adviseP99(), plain.adviseRate()))
	r.note("traced advise p50/p99", clientP50, "ms",
		fmt.Sprintf("p99 %.3f ms, %.0f req/s", traced.adviseP99(), traced.adviseRate()))
	r.note("client+network per advise (span self)", clientSelf, "ms", "median of client span minus server span")

	handlerRest := ap.inproc - ap.decode - ap.advise - ap.encode
	if mixed == nil {
		// The median advise request is a miss here, so the handler's p50
		// minus its compute is the time it waited for its batch.
		r.set("server.batch_wait_ms", adv.P50Ms-ms(ap.decode+ap.advise+ap.encode))
		r.set("trace.overhead_share", clientP50/plain.adviseP50()-1)
		l := &ladder{title: "advise-miss, one advise request at the median", unit: "ms",
			endToEnd: plain.adviseP50(), traced: clientP50,
			remainder: "= batch-window wait (2 ms window) and the dispatcher hand-off"}
		l.add("client + network", clientP50-adv.P50Ms, "client p50 minus handler p50")
		l.add("server.decode", ms(ap.decode), "json.Unmarshal of the request")
		l.add("kb.advise", ms(ap.advise), "Snapshot.AdviseSeverities")
		l.add("server.encode", ms(ap.encode), "json.Marshal of the response envelope")
		l.add("server.handler_rest", ms(handlerRest), "in-process ServeHTTP (cache off, window 0) minus the three above")
		r.ladder = l
		r.set("ladder.unattributed_share", l.unattributed())
		return rec.write(filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)))
	}

	up, err := uploadProbes(k, mixed)
	if err != nil {
		return err
	}
	r.set("server.reload_p50_ms", m.Endpoints["reload"].P50Ms)
	r.set("server.lod_handler_p50_ms", m.Endpoints["lodProfile"].P50Ms)
	r.set("server.profile_handler_p50_ms", m.Endpoints["profile"].P50Ms)
	r.set("kb.load_ms", ms(up.kbLoad))
	r.set("provenance.verify_ms", ms(up.verify))
	r.set("kb.snapshot_ms", ms(up.snapshot))
	r.set("rdf.stream_ms", ms(up.stream))
	r.set("core.ingest_lod_ms", ms(up.ingest))
	r.set("table.read_csv_ms", ms(up.readCSV))
	r.set("dq.measure_ms", ms(up.measure))
	r.set("trace.overhead_share", plain.adviseRate()/traced.adviseRate()-1)

	// Ladder in connection time per advise request served: the closed loop
	// keeps every connection busy, so connections / advise_rps is the time
	// one advise "costs", uploads and reloads included.
	perAdvise := func(st *loadStats) float64 { return 1000 * float64(serveConns()) / st.adviseRate() }
	share := func(k kind) float64 { return float64(traced.done[k]) / float64(max(traced.done[kindAdvise], 1)) }
	l := &ladder{title: "serve-mixed, connection time per advise request", unit: "ms",
		endToEnd: perAdvise(plain), traced: perAdvise(traced),
		remainder: "= HTTP, JSON and network of uploads and reloads, CPU contention between the connections, client gaps"}
	l.add("advise requests", traced.adviseMean(), fmt.Sprintf("mean client latency; cache hit ratio %.3f", m.CacheHitRate))
	csv := share(kindCSV)
	l.add("table.read_csv", csv*ms(up.readCSV), fmt.Sprintf("%.4f CSV uploads per advise", csv))
	l.add("dq.measure", csv*ms(up.measure), "")
	lod := share(kindLOD)
	l.add("core.ingest_lod", lod*ms(up.ingest), fmt.Sprintf("%.4f N-Triples uploads per advise; rdf.Stream alone %.2f ms", lod, ms(up.stream)))
	rel := share(kindReload)
	l.add("kb.load", rel*ms(up.kbLoad), fmt.Sprintf("%.4f reloads per advise", rel))
	l.add("provenance.verify", rel*ms(up.verify), "")
	l.add("kb.snapshot", rel*ms(up.snapshot), "")
	r.ladder = l
	r.set("ladder.unattributed_share", l.unattributed())
	return rec.write(filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func fetchMetrics(url string) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// linkSpans makes each server span a child of the client span with the same
// request id and returns the median client self time of advise requests
// (client span minus the server span inside it), in ms.
func linkSpans(rec *recorder) float64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	client := map[int64]int{}
	for _, s := range rec.spans {
		if strings.HasPrefix(s.Name, "client.") {
			client[s.Req] = s.ID
		}
	}
	var self []float64
	for i, s := range rec.spans {
		p, ok := client[s.Req]
		if !ok || !strings.HasPrefix(s.Name, "server/") {
			continue
		}
		rec.spans[i].Parent = p
		if rec.spans[p].Name == "client.advise" {
			self = append(self, ms(rec.spans[p].dur()-s.dur()))
		}
	}
	return median(self)
}

// probeKeys are the severity vectors the advise probes replay: the
// serve-mixed pool, or fresh advise-miss draws.
func probeKeys(r *run, mixed *mixedInputs) []vecKey {
	if mixed != nil {
		return mixed.pool
	}
	rng := rand.New(rand.NewSource(r.seed))
	keys := make([]vecKey, probeCalls)
	for i := range keys {
		keys[i] = randomKey(rng)
	}
	return keys
}

// adviseTimes are the median per-call times of the advise path's layers.
type adviseTimes struct {
	decode, advise, encode, inproc time.Duration
}

const probeCalls = 2000

// adviseProbes times each advise layer on its own over probeCalls calls:
// request decoding, Snapshot.AdviseSeverities, encoding of the response
// envelope, and the whole handler in process (Server.ServeHTTP with the
// cache off and a zero batch window).
func adviseProbes(k *kbFiles, keys []vecKey) (adviseTimes, error) {
	var t adviseTimes
	vecs := make([][]float64, len(keys))
	bodies := make([][]byte, len(keys))
	advice := make([]kb.Advice, len(keys))
	for i, key := range keys {
		v := key.vector()
		vecs[i] = v
		bodies[i] = key.body()
		a, err := k.snap.AdviseSeverities(v)
		if err != nil {
			return t, err
		}
		advice[i] = a
	}
	var err error
	t.decode, err = perCall(func(i int) error {
		var req struct {
			Severities []float64          `json:"severities"`
			Profile    map[string]float64 `json:"profile"`
		}
		return json.Unmarshal(bodies[i%len(bodies)], &req)
	})
	if err != nil {
		return t, err
	}
	t.advise, err = perCall(func(i int) error {
		_, err := k.snap.AdviseSeverities(vecs[i%len(vecs)])
		return err
	})
	if err != nil {
		return t, err
	}
	// The envelope has the shape of the server's advise response.
	type meta struct {
		Generation uint64    `json:"generation"`
		Records    int       `json:"records"`
		LoadedAt   time.Time `json:"loadedAt"`
		Source     string    `json:"source"`
	}
	loaded := time.Now()
	t.encode, err = perCall(func(i int) error {
		_, err := json.Marshal(struct {
			Advice kb.Advice `json:"advice"`
			KB     meta      `json:"kb"`
		}{advice[i%len(advice)], meta{1, k.snap.Len(), loaded, k.path}})
		return err
	})
	if err != nil {
		return t, err
	}

	doc, err := os.ReadFile(k.path)
	if err != nil {
		return t, err
	}
	eng, err := core.New()
	if err != nil {
		return t, err
	}
	if err := eng.LoadKB(bytes.NewReader(doc)); err != nil {
		return t, err
	}
	srv, err := server.New(eng, server.WithCacheSize(0), server.WithBatchWindow(0))
	if err != nil {
		return t, err
	}
	defer srv.Close()
	w := &discardWriter{h: http.Header{}}
	times := make([]float64, probeCalls)
	for i := range times {
		req, err := http.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return t, err
		}
		clear(w.h)
		w.code = 0
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		times[i] = float64(time.Since(t0))
		if w.code != http.StatusOK {
			return t, fmt.Errorf("in-process advise: HTTP %d", w.code)
		}
	}
	t.inproc = time.Duration(median(times))
	return t, nil
}

// perCall calls f probeCalls times and returns the median call time.
func perCall(f func(i int) error) (time.Duration, error) {
	times := make([]float64, probeCalls)
	for i := range times {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times)), nil
}

type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// uploadTimes are the median times of the upload and reload layers.
type uploadTimes struct {
	stream, ingest, readCSV, measure time.Duration
	kbLoad, verify, snapshot         time.Duration
}

const uploadRepeats = 5

// uploadProbes times the layers under serve-mixed's uploads and reloads on
// the workload's own bodies and KB file: rdf.Stream with a no-op callback,
// core.IngestLOD, table.ReadCSV, dq.MeasureWith (with reused scratch, as
// the handler does), and a reload's kb.Load, manifest verification and
// snapshot build.
func uploadProbes(k *kbFiles, in *mixedInputs) (uploadTimes, error) {
	var t uploadTimes
	var stream, ingest, readCSV, measure, load, verify, snap []float64
	for range uploadRepeats {
		for _, b := range in.lod {
			t0 := time.Now()
			if err := rdf.Stream(bytes.NewReader(b), "nt", func(rdf.Triple) error { return nil }); err != nil {
				return t, err
			}
			t1 := time.Now()
			if _, err := core.IngestLOD(bytes.NewReader(b), "nt", rdf.ProjectOptions{LargestClass: true}); err != nil {
				return t, err
			}
			stream = append(stream, float64(t1.Sub(t0)))
			ingest = append(ingest, float64(time.Since(t1)))
		}
		sc := dq.NewScratch()
		for _, b := range in.csv {
			t0 := time.Now()
			tb, err := table.ReadCSV(bytes.NewReader(b), table.ReadCSVOptions{HasHeader: true, Name: "upload"})
			if err != nil {
				return t, err
			}
			t1 := time.Now()
			dq.MeasureWith(tb, dq.MeasureOptions{ClassColumn: tb.ColumnIndex("class")}, sc)
			readCSV = append(readCSV, float64(t1.Sub(t0)))
			measure = append(measure, float64(time.Since(t1)))
		}
		for range 4 {
			t0 := time.Now()
			doc, err := os.ReadFile(k.path)
			if err != nil {
				return t, err
			}
			base, err := kb.Load(bytes.NewReader(doc))
			if err != nil {
				return t, err
			}
			t1 := time.Now()
			m, err := provenance.LoadFile(k.manifestPath)
			if err != nil {
				return t, err
			}
			if err := kb.VerifyManifest(m, doc, base); err != nil {
				return t, err
			}
			t2 := time.Now()
			base.Snapshot()
			load = append(load, float64(t1.Sub(t0)))
			verify = append(verify, float64(t2.Sub(t1)))
			snap = append(snap, float64(time.Since(t2)))
		}
	}
	d := func(xs []float64) time.Duration { return time.Duration(median(xs)) }
	t.stream, t.ingest, t.readCSV, t.measure = d(stream), d(ingest), d(readCSV), d(measure)
	t.kbLoad, t.verify, t.snapshot = d(load), d(verify), d(snap)
	return t, nil
}
