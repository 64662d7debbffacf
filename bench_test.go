// Benchmarks regenerating every experiment of DESIGN.md §2. The paper is a
// position paper without numeric tables, so each bench reproduces one
// element of its framework (Figure 1, Figure 2 phases, the companion grid
// of ref [6]) and reports the headline *shape* metric via b.ReportMetric
// (kappa, hit-rates, losses) next to the usual ns/op.
//
// Run: go test -bench=. -benchmem
package openbi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"openbi/internal/clean"
	"openbi/internal/dq"
	"openbi/internal/eval"
	"openbi/internal/experiment"
	"openbi/internal/inject"
	"openbi/internal/kb"
	"openbi/internal/mining"
	"openbi/internal/olap"
	"openbi/internal/rdf"
	"openbi/internal/stats"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// benchCfg is the shared, deliberately small experiment configuration:
// big enough for stable shapes, small enough that the full bench suite
// runs in minutes.
func benchCfg(seed int64) experiment.Config {
	return experiment.Config{
		Seed:       seed,
		Folds:      3,
		Severities: []float64{0, 0.2, 0.4},
	}
}

func benchDataset(b *testing.B, rows int) *mining.Dataset {
	b.Helper()
	ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: rows, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// buildKB runs Phase 1 once (outside the timer) for benches that need a
// populated knowledge base, returning its immutable serving snapshot.
func buildKB(b *testing.B, ds *mining.Dataset) *kb.Snapshot {
	b.Helper()
	recs, err := experiment.Phase1(context.Background(), benchCfg(42), ds, "bench")
	if err != nil {
		b.Fatal(err)
	}
	base := kb.New()
	for _, r := range recs {
		base.Add(r)
	}
	return base.Snapshot()
}

// ---- F1: the KDD pipeline of Figure 1 ----

// BenchmarkF1_KDDPipeline measures the full end-to-end path: LOD →
// projection (integration) → cleaning (preprocessing) → mining →
// evaluation. One iteration is one complete pipeline run.
func BenchmarkF1_KDDPipeline(b *testing.B) {
	g, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: 400, Dirtiness: 0.2, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var lastKappa float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := rdf.Project(g, rdf.ProjectOptions{
			Class: rdf.NewIRI(synth.NSDef + "Municipality"),
		})
		if err != nil {
			b.Fatal(err)
		}
		tb = tb.DropColumn("label")
		pipe := clean.Pipeline{Steps: []clean.Step{
			clean.Dedup{},
			clean.Imputer{Strategy: clean.MeanMode, ExcludeColumns: []string{"fundingLevel"}},
		}}
		cleaned, _, err := pipe.Run(tb)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := mining.NewDatasetByName(cleaned, "fundingLevel")
		if err != nil {
			b.Fatal(err)
		}
		m, err := eval.CrossValidate(func() mining.Classifier { return mining.NewC45Tree() }, ds, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		lastKappa = m.Kappa
	}
	b.ReportMetric(lastKappa, "kappa")
}

// ---- F2 Phase 1: one bench per data-quality criterion ----

// meanKappaDrop is the mean, over algorithms, of the kappa lost between the
// lowest and highest severity of crit's degradation curve: records grouped
// by severity (mixed runs excluded, clean runs shared by every criterion)
// and averaged, as kb's curves are. It reads the records directly so the
// timed loop does not pay for a Snapshot's every-curve precompute.
func meanKappaDrop(records []kb.Record, crit dq.Criterion) float64 {
	type acc struct{ sum, n float64 }
	curves := map[string]map[float64]*acc{}
	for _, r := range records {
		if r.Mixed || (r.Severity != 0 && r.Criterion != crit.String()) {
			continue
		}
		c := curves[r.Algorithm]
		if c == nil {
			c = map[float64]*acc{}
			curves[r.Algorithm] = c
		}
		a := c[r.Severity]
		if a == nil {
			a = &acc{}
			c[r.Severity] = a
		}
		a.sum += r.Metrics.Kappa
		a.n++
	}
	algs := make([]string, 0, len(curves))
	for alg := range curves {
		algs = append(algs, alg)
	}
	sort.Strings(algs)
	sum, n := 0.0, 0
	for _, alg := range algs {
		c := curves[alg]
		if len(c) < 2 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := range c {
			lo, hi = math.Min(lo, s), math.Max(hi, s)
		}
		sum += c[lo].sum/c[lo].n - c[hi].sum/c[hi].n
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// benchPhase1Criterion runs the severity sweep of one criterion over the
// full algorithm suite; reports the mean kappa drop from severity 0 to
// the maximum severity (the criterion's aggregate bite).
func benchPhase1Criterion(b *testing.B, crit dq.Criterion) {
	ds := benchDataset(b, 200)
	cfg := benchCfg(42)
	cfg.Criteria = []dq.Criterion{crit}
	var drop float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := experiment.Phase1(context.Background(), cfg, ds, "bench")
		if err != nil {
			b.Fatal(err)
		}
		base := kb.New()
		for _, r := range recs {
			base.Add(r)
		}
		drop = meanKappaDrop(base.Records, crit)
	}
	b.ReportMetric(drop, "mean-kappa-drop")
}

func BenchmarkF2_Phase1_Completeness(b *testing.B)   { benchPhase1Criterion(b, dq.Completeness) }
func BenchmarkF2_Phase1_Duplicates(b *testing.B)     { benchPhase1Criterion(b, dq.Duplicates) }
func BenchmarkF2_Phase1_Correlation(b *testing.B)    { benchPhase1Criterion(b, dq.Correlation) }
func BenchmarkF2_Phase1_Imbalance(b *testing.B)      { benchPhase1Criterion(b, dq.Imbalance) }
func BenchmarkF2_Phase1_LabelNoise(b *testing.B)     { benchPhase1Criterion(b, dq.LabelNoise) }
func BenchmarkF2_Phase1_AttributeNoise(b *testing.B) { benchPhase1Criterion(b, dq.AttributeNoise) }
func BenchmarkF2_Phase1_Dimensionality(b *testing.B) { benchPhase1Criterion(b, dq.Dimensionality) }

// ---- F2 Phase 2: mixed criteria ----

// BenchmarkF2_Phase2_Mixed runs the canonical pair combinations at
// severity 0.3 and reports the mean interaction (actual − additive
// prediction); negative values are the super-additive degradation the
// paper's Phase 2 exists to expose.
func BenchmarkF2_Phase2_Mixed(b *testing.B) {
	ds := benchDataset(b, 200)
	cfg := benchCfg(42)
	base := buildKB(b, ds)
	combos := experiment.DefaultCombos([]dq.Criterion{
		dq.Completeness, dq.LabelNoise, dq.Imbalance,
	})
	var interaction float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixed, _, err := experiment.Phase2(context.Background(), cfg, ds, "bench", base, combos, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, m := range mixed {
			sum += m.Interaction()
		}
		interaction = sum / float64(len(mixed))
	}
	b.ReportMetric(interaction, "mean-interaction")
}

// ---- F2 sharded: the scale-out path ----

// BenchmarkF2_ShardedGrid measures the full sharded KB construction path —
// run every shard of a 2-way plan, then kb.Merge — against the identical
// monolithic grid, so the scale-out overhead (duplicate cell preparation
// on shard boundaries, positioning, merge validation) stays visible in the
// perf trajectory. One iteration builds one complete knowledge base.
func BenchmarkF2_ShardedGrid(b *testing.B) {
	ds := benchDataset(b, 200)
	cfg := benchCfg(42)
	cfg.Criteria = []dq.Criterion{dq.Completeness, dq.LabelNoise}
	combos := experiment.DefaultCombos(cfg.Criteria)

	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		var records int
		for i := 0; i < b.N; i++ {
			p1, err := experiment.Phase1(context.Background(), cfg, ds, "bench")
			if err != nil {
				b.Fatal(err)
			}
			base := kb.New()
			for _, r := range p1 {
				base.Add(r)
			}
			_, p2, err := experiment.Phase2(context.Background(), cfg, ds, "bench", base.Snapshot(), combos, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			records = len(p1) + len(p2)
		}
		b.ReportMetric(float64(records), "records")
	})

	b.Run("sharded-2", func(b *testing.B) {
		b.ReportAllocs()
		var records int
		for i := 0; i < b.N; i++ {
			shards := make([]*kb.Shard, 2)
			for s := range shards {
				sh, err := experiment.RunShard(context.Background(), cfg, ds, "bench", experiment.ShardRun{
					Plan:   experiment.ShardPlan{Index: s, Count: 2},
					Combos: combos,
				})
				if err != nil {
					b.Fatal(err)
				}
				shards[s] = sh
			}
			merged, err := kb.Merge(shards...)
			if err != nil {
				b.Fatal(err)
			}
			records = merged.Len()
		}
		b.ReportMetric(float64(records), "records")
	})
}

// ---- F2: knowledge-base population and advice ----

// BenchmarkF2_KnowledgeBase measures building the sensitivity table from
// a populated knowledge base (the DQ4DM artifact itself).
func BenchmarkF2_KnowledgeBase(b *testing.B) {
	base := buildKB(b, benchDataset(b, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algs, _, cells := base.SensitivityTable()
		if len(algs) == 0 || len(cells) == 0 {
			b.Fatal("empty sensitivity table")
		}
	}
}

// BenchmarkF2_Advisor measures one complete advice call (profile → ranked
// recommendation) on a corrupted source and reports the advisor's
// validation hit-rate computed once outside the timer.
func BenchmarkF2_Advisor(b *testing.B) {
	ds := benchDataset(b, 200)
	base := buildKB(b, ds)
	dirty, err := inject.Apply(ds.T, ds.ClassCol, []inject.Spec{
		{Criterion: dq.LabelNoise, Severity: 0.3},
		{Criterion: dq.Completeness, Severity: 0.2},
	}, 5)
	if err != nil {
		b.Fatal(err)
	}
	res, err := experiment.Validate(context.Background(), benchCfg(42), ds, base, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var best string
	for i := 0; i < b.N; i++ {
		profile := dq.Measure(dirty, dq.MeasureOptions{ClassColumn: ds.ClassCol})
		advice, err := base.Advise(profile)
		if err != nil {
			b.Fatal(err)
		}
		best = advice.Best().Algorithm
	}
	if best == "" {
		b.Fatal("no advice")
	}
	b.ReportMetric(res.Top1Rate(), "top1-rate")
	b.ReportMetric(res.Top2Rate(), "top2-rate")
	b.ReportMetric(res.MeanRegret, "mean-regret")
}

// ---- T-C1..C6: the companion-paper grid (ref [6]) ----

// benchCriterionTable reproduces one column of the companion grid: a
// single classifier's kappa under one criterion at severity 0.3,
// reported per iteration.
func benchCriterionTable(b *testing.B, algorithm string, crit dq.Criterion) {
	ds := benchDataset(b, 200)
	factory, err := mining.Lookup(algorithm, 42)
	if err != nil {
		b.Fatal(err)
	}
	dirty, err := inject.Apply(ds.T, ds.ClassCol,
		[]inject.Spec{{Criterion: crit, Severity: 0.3}}, 11)
	if err != nil {
		b.Fatal(err)
	}
	evalDS, err := mining.NewDataset(dirty, ds.ClassCol)
	if err != nil {
		b.Fatal(err)
	}
	var kappa float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := eval.CrossValidate(factory, evalDS, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		kappa = m.Kappa
	}
	b.ReportMetric(kappa, "kappa@0.3")
}

func BenchmarkT_Criterion(b *testing.B) {
	for _, crit := range []dq.Criterion{
		dq.Completeness, dq.LabelNoise, dq.AttributeNoise,
		dq.Imbalance, dq.Correlation, dq.Dimensionality,
	} {
		for _, alg := range []string{"naive-bayes", "c45", "5-nn", "logistic"} {
			b.Run(fmt.Sprintf("%s/%s", crit, alg), func(b *testing.B) {
				benchCriterionTable(b, alg, crit)
			})
		}
	}
}

// ---- E-LOD: LOD integration (§3.2) ----

// BenchmarkE_LODIntegration measures RDF → common representation → DQ
// annotation on a 1000-entity municipal graph.
func BenchmarkE_LODIntegration(b *testing.B) {
	g, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: 1000, Dirtiness: 0.1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	class := rdf.NewIRI(synth.NSDef + "Municipality")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := rdf.Project(g, rdf.ProjectOptions{Class: class})
		if err != nil {
			b.Fatal(err)
		}
		p := dq.Measure(tb, dq.MeasureOptions{ClassColumn: tb.ColumnIndex("fundingLevel")})
		if p.Rows == 0 {
			b.Fatal("empty projection")
		}
	}
	b.ReportMetric(float64(g.Len()), "triples")
}

// ---- E-DIM: dimensionality reduction (§1, ref [8]) ----

// BenchmarkE_DimReduction compares kNN on a wide noisy table under three
// treatments — nothing, PCA to 95% variance, and tree-based attribute
// selection — reporting each treatment's kappa. The paper's complaint is
// visible in the metrics: PCA recovers accuracy but destroys the
// attribute structure a non-expert could read.
func BenchmarkE_DimReduction(b *testing.B) {
	ds, err := synth.MakeClassification(synth.ClassificationSpec{
		Rows: 300, Seed: 4, Irrelevant: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	knn := func() mining.Classifier { return mining.NewKNN(5) }

	var rawK, pcaK, selK float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Treatment 1: nothing.
		m, err := eval.CrossValidate(knn, ds, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		rawK = m.Kappa

		// Treatment 2: PCA projection of the numeric attributes.
		numIdx := ds.T.NumericColumnIndices()
		cols := make([][]float64, 0, len(numIdx))
		for _, j := range numIdx {
			cols = append(cols, table.Floats(ds.T, j))
		}
		pca, err := stats.FitPCA(cols)
		if err != nil {
			b.Fatal(err)
		}
		k := pca.ComponentsFor(0.95)
		proj := pca.Transform(cols, k)
		pt := table.New("pca")
		for c, col := range proj {
			nc := table.NewNumericColumn(fmt.Sprintf("pc%d", c+1))
			nc.Nums = col
			pt.MustAddColumn(nc)
		}
		pt.MustAddColumn(ds.Class().Clone())
		pds, err := mining.NewDataset(pt, pt.NumCols()-1)
		if err != nil {
			b.Fatal(err)
		}
		m, err = eval.CrossValidate(knn, pds, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		pcaK = m.Kappa

		// Treatment 3: keep only attributes a pruned tree actually uses —
		// structure-preserving selection.
		dt := mining.NewC45Tree()
		if err := dt.Fit(ds); err != nil {
			b.Fatal(err)
		}
		used := map[string]bool{}
		for _, name := range ds.T.ColumnNames() {
			if name != "class" && treeUses(dt.Dump(ds), name) {
				used[name] = true
			}
		}
		keep := []int{}
		for j, name := range ds.T.ColumnNames() {
			if used[name] || j == ds.ClassCol {
				keep = append(keep, j)
			}
		}
		if len(keep) > 1 {
			st := table.ColumnView(ds.T, keep)
			sds, err := mining.NewDatasetByName(st, "class")
			if err != nil {
				b.Fatal(err)
			}
			m, err = eval.CrossValidate(knn, sds, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			selK = m.Kappa
		}
	}
	b.ReportMetric(rawK, "kappa-raw")
	b.ReportMetric(pcaK, "kappa-pca")
	b.ReportMetric(selK, "kappa-select")
}

func treeUses(dump, attr string) bool {
	return len(dump) > 0 && (containsWord(dump, "if "+attr+" ") || containsWord(dump, "if "+attr+" ="))
}

func containsWord(s, w string) bool {
	return len(w) > 0 && len(s) >= len(w) && (indexOf(s, w) >= 0)
}

func indexOf(s, w string) int {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] == w {
			return i
		}
	}
	return -1
}

// ---- E-CLEAN: cleaning efficacy (§2) ----

// BenchmarkE_Cleaning measures the repair loop: corrupt → clean → mine,
// reporting kappa on dirty vs cleaned data.
func BenchmarkE_Cleaning(b *testing.B) {
	ds := benchDataset(b, 240)
	dirtyT, err := inject.Apply(ds.T, ds.ClassCol, []inject.Spec{
		{Criterion: dq.Completeness, Severity: 0.3},
		{Criterion: dq.Duplicates, Severity: 0.2},
	}, 13)
	if err != nil {
		b.Fatal(err)
	}
	factory := func() mining.Classifier { return mining.NewKNN(5) }
	var dirtyK, cleanK float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dds, err := mining.NewDataset(dirtyT, ds.ClassCol)
		if err != nil {
			b.Fatal(err)
		}
		m, err := eval.CrossValidate(factory, dds, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		dirtyK = m.Kappa

		pipe := clean.Pipeline{Steps: []clean.Step{
			clean.Dedup{},
			clean.Imputer{Strategy: clean.KNNImpute, K: 5, ExcludeColumns: []string{"class"}},
		}}
		cleaned, _, err := pipe.Run(dirtyT)
		if err != nil {
			b.Fatal(err)
		}
		cds, err := mining.NewDataset(cleaned, ds.ClassCol)
		if err != nil {
			b.Fatal(err)
		}
		m, err = eval.CrossValidate(factory, cds, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		cleanK = m.Kappa
	}
	b.ReportMetric(dirtyK, "kappa-dirty")
	b.ReportMetric(cleanK, "kappa-cleaned")
}

// ---- E-OLAP: the OpenBI analysis path (§1(i)) ----

// BenchmarkE_OLAP measures cube construction plus a two-dimensional
// roll-up and a pivot over an air-quality projection.
func BenchmarkE_OLAP(b *testing.B) {
	g, err := synth.AirQualityLOD(synth.LODSpec{Entities: 2000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	tb, err := rdf.Project(g, rdf.ProjectOptions{Class: rdf.NewIRI(synth.NSDef + "Station")})
	if err != nil {
		b.Fatal(err)
	}
	tb = tb.DropColumn("label")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube, err := olap.NewCube(tb, []string{"inCity", "zoneType", "alertLevel"},
			[]olap.Measure{{Column: "no2", Agg: olap.Avg}, {Column: "pm10", Agg: olap.Max}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cube.RollUp("inCity", "alertLevel"); err != nil {
			b.Fatal(err)
		}
		tab, err := cube.Pivot("p", "inCity", "alertLevel", 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tb.NumRows()), "stations")
}

// ---- Serving: the HTTP advice service of internal/server ----

// benchServer builds a serving stack over a Phase-1 knowledge base: the
// engine loads real experiment records, the server fronts it exactly as
// `openbi serve` would.
func benchServer(b *testing.B, opts ...ServerOption) *Server {
	b.Helper()
	ds := benchDataset(b, 160)
	recs, err := experiment.Phase1(context.Background(), benchCfg(42), ds, "bench")
	if err != nil {
		b.Fatal(err)
	}
	base := kb.New()
	for _, r := range recs {
		base.Add(r)
	}
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		b.Fatal(err)
	}
	eng, err := New(WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.LoadKB(&buf); err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(eng, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// discardWriter is a zero-allocation ResponseWriter so the benchmark
// numbers are the server's own cost, not the test recorder's.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

var adviseURL = &url.URL{Path: "/v1/advise"}

// adviseClient reuses one request and body reader across calls, so the
// benchmark charges the server's work, not per-call harness construction.
type adviseClient struct {
	w      discardWriter
	reader *bytes.Reader
	req    *http.Request
}

func newAdviseClient() *adviseClient {
	c := &adviseClient{w: discardWriter{h: http.Header{}}, reader: bytes.NewReader(nil)}
	c.req = &http.Request{Method: "POST", URL: adviseURL, Body: io.NopCloser(c.reader)}
	return c
}

func (c *adviseClient) advise(b *testing.B, srv *Server, body []byte) {
	c.reader.Reset(body)
	c.w.code = 0
	srv.ServeHTTP(&c.w, c.req)
	if c.w.code != 200 {
		b.Fatalf("status %d", c.w.code)
	}
}

// BenchmarkServeAdvise measures the three advise paths end to end through
// the handler stack: cold (every request scores the full suite), cache-hit
// (repeated profiles answered from the LRU with the serialized bytes), and
// batched (concurrent requests coalesced into shared scoring passes). The
// cache-hit path must be an order of magnitude lighter in allocations than
// cold — that is the point of caching serialized responses.
func BenchmarkServeAdvise(b *testing.B) {
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"severities": [%.2f, 0, 0, 0, %.2f, 0, 0]}`,
			float64(i%8)/10, float64(i/8)/10))
	}

	b.Run("cold", func(b *testing.B) {
		srv := benchServer(b, WithCacheSize(0), WithBatchWindow(0))
		c := newAdviseClient()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.advise(b, srv, bodies[i%len(bodies)])
		}
	})

	b.Run("cache-hit", func(b *testing.B) {
		srv := benchServer(b, WithBatchWindow(0))
		c := newAdviseClient()
		c.advise(b, srv, bodies[0]) // warm the entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.advise(b, srv, bodies[0])
		}
		b.StopTimer()
		m := srv.Metrics()
		b.ReportMetric(m.CacheHitRate, "hit-rate")
	})

	b.Run("batched", func(b *testing.B) {
		srv := benchServer(b, WithCacheSize(0), WithBatchWindow(200*time.Microsecond))
		b.SetParallelism(16) // 16 concurrent clients even on one CPU
		b.ReportAllocs()
		b.ResetTimer()
		var n atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			c := newAdviseClient()
			for pb.Next() {
				c.advise(b, srv, bodies[int(n.Add(1))%len(bodies)])
			}
		})
		b.StopTimer()
		m := srv.Metrics()
		b.ReportMetric(m.MeanBatchSize, "batch-size")
	})
}

// ---- Columnar analysis/cleaning/profile surfaces (§1(i) + §2) ----

// olapBenchTable is a fact table in the shape open-data roll-ups see:
// a few low-cardinality nominal dimensions over many rows, numeric
// measures, and a sprinkle of missing cells in both.
func olapBenchTable(b *testing.B, rows int) *table.Table {
	b.Helper()
	tb := table.New("facts")
	region := table.NewNominalColumn("region")
	kind := table.NewNominalColumn("kind")
	spend := table.NewNumericColumn("spend")
	pop := table.NewNumericColumn("pop")
	for i := 0; i < rows; i++ {
		if i%37 == 13 {
			region.AppendMissing()
		} else {
			region.AppendLabel(fmt.Sprintf("region-%d", i%11))
		}
		kind.AppendLabel(fmt.Sprintf("kind-%d", (i*7)%5))
		if i%53 == 5 {
			spend.AppendMissing()
		} else {
			spend.AppendFloat(float64(i%997) * 1.25)
		}
		pop.AppendFloat(float64(i % 613))
	}
	tb.MustAddColumn(region)
	tb.MustAddColumn(kind)
	tb.MustAddColumn(spend)
	tb.MustAddColumn(pop)
	return tb
}

// BenchmarkOLAPRollUp measures the grouped aggregation kernel alone: one
// two-dimensional roll-up per iteration over a 20k-row fact table.
func BenchmarkOLAPRollUp(b *testing.B) {
	tb := olapBenchTable(b, 20000)
	cube, err := olap.NewCube(tb, []string{"region", "kind"}, []olap.Measure{
		{Column: "spend", Agg: olap.Sum},
		{Column: "spend", Agg: olap.Avg},
		{Column: "pop", Agg: olap.Max},
	})
	if err != nil {
		b.Fatal(err)
	}
	var cells int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := cube.RollUp("region", "kind")
		if err != nil {
			b.Fatal(err)
		}
		cells = len(out)
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkCleanPipeline measures the ported repair passes back to back —
// dedup, mean/mode imputation, standardization, outlier fences — over a
// 2k-row dirty table (KNN imputation is benchmarked in BenchmarkE_Cleaning
// and the ablation suite; here the span-ported steps are the subject).
func BenchmarkCleanPipeline(b *testing.B) {
	ds := benchDataset(b, 2000)
	dirtyT, err := inject.Apply(ds.T, ds.ClassCol, []inject.Spec{
		{Criterion: dq.Completeness, Severity: 0.2},
		{Criterion: dq.Duplicates, Severity: 0.2},
		{Criterion: dq.AttributeNoise, Severity: 0.1},
	}, 13)
	if err != nil {
		b.Fatal(err)
	}
	pipe := clean.Pipeline{Steps: []clean.Step{
		clean.Dedup{},
		clean.Imputer{Strategy: clean.MeanMode, ExcludeColumns: []string{"class"}},
		clean.Standardizer{Lowercase: true, Dates: true},
		clean.OutlierFilter{K: 3, ExcludeColumns: []string{"class"}},
	}}
	var kept int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := pipe.Run(dirtyT)
		if err != nil {
			b.Fatal(err)
		}
		kept = out.NumRows()
	}
	b.ReportMetric(float64(kept), "rows-kept")
}

var profileURL = &url.URL{Path: "/v1/profile", RawQuery: "class=class"}

// BenchmarkServeProfile measures POST /v1/profile end to end through the
// handler stack: CSV decode, fused dq.Measure kernels, severity mapping.
func BenchmarkServeProfile(b *testing.B) {
	ds := benchDataset(b, 400)
	dirtyT, err := inject.Apply(ds.T, ds.ClassCol, []inject.Spec{
		{Criterion: dq.Completeness, Severity: 0.1},
		{Criterion: dq.Duplicates, Severity: 0.1},
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := table.WriteCSV(&csvBuf, dirtyT); err != nil {
		b.Fatal(err)
	}
	body := csvBuf.Bytes()
	srv := benchServer(b)
	c := newAdviseClient()
	c.req.URL = profileURL
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.reader.Reset(body)
		c.w.code = 0
		srv.ServeHTTP(&c.w, c.req)
		if c.w.code != 200 {
			b.Fatalf("status %d", c.w.code)
		}
	}
}
