package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"

	"openbi/internal/core"
	"openbi/internal/dq"
	"openbi/internal/inject"
	"openbi/internal/rdf"
	"openbi/internal/synth"
	"openbi/internal/table"
)

// serve-mixed shape. Each connection follows a script fixed by its request
// count: a CSV upload at every 50th request (offset 25), an N-Triples
// upload at every 100th (offset 50), a same-file KB reload as connection
// 0's every reloadEvery-th request, and advice from a pool of mixedPool
// distinct vectors otherwise. The pool is far smaller than the 1024-entry
// cache, so advice mostly hits; each reload empties the cache (new
// generation) and the pool re-warms through the batch window.
const (
	mixedPool   = 64
	reloadEvery = 400
	csvRows     = 2000
	csvVariants = 3
	lodEntities = 1500
	lodVariants = 2
)

// mixedInputs are serve-mixed's request bodies and, for each, the answer a
// direct call into the library gives on the same bytes.
type mixedInputs struct {
	pool       []vecKey
	poolBodies [][]byte
	csv        [][]byte
	csvWant    []csvProfile
	lod        [][]byte
	lodWant    []lodProfile
	reload     []byte
}

// csvProfile is the part of a POST /v1/profile response that is checked.
type csvProfile struct {
	Rows       int                `json:"rows"`
	Severities map[string]float64 `json:"severities"`
}

// lodProfile mirrors the POST /v1/lod/profile response.
type lodProfile struct {
	Triples    int                `json:"triples"`
	Entities   int                `json:"entities"`
	Measures   map[string]float64 `json:"measures"`
	Projection struct {
		Class   string `json:"class"`
		Rows    int    `json:"rows"`
		Columns int    `json:"columns"`
	} `json:"projection"`
}

func makeMixedInputs(seed int64, k *kbFiles) (*mixedInputs, error) {
	if len(dq.AllCriteria()) != len(vecKey{}) {
		return nil, fmt.Errorf("%d criteria, the benchmark encodes %d", len(dq.AllCriteria()), len(vecKey{}))
	}
	in := &mixedInputs{}
	rng := rand.New(rand.NewSource(seed*31 + 7))
	seen := map[vecKey]bool{}
	for len(in.pool) < mixedPool {
		var key vecKey
		for j := range key {
			if rng.Intn(2) == 1 {
				key[j] = uint8(1 + rng.Intn(60))
			}
		}
		if !seen[key] {
			seen[key] = true
			in.pool = append(in.pool, key)
			in.poolBodies = append(in.poolBodies, key.body())
		}
	}
	for i := range csvVariants {
		ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: csvRows, Seed: seed*101 + int64(i)})
		if err != nil {
			return nil, err
		}
		dirty, err := inject.Apply(ds.T, ds.ClassCol, []inject.Spec{
			{Criterion: dq.Completeness, Severity: 0.1},
			{Criterion: dq.Duplicates, Severity: 0.05},
			{Criterion: dq.LabelNoise, Severity: 0.1},
		}, seed*103+int64(i))
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := table.WriteCSV(&b, dirty); err != nil {
			return nil, err
		}
		want, err := directCSVProfile(b.Bytes())
		if err != nil {
			return nil, err
		}
		in.csv = append(in.csv, b.Bytes())
		in.csvWant = append(in.csvWant, want)
	}
	for i := range lodVariants {
		g, err := synth.MunicipalBudgetLOD(synth.LODSpec{Entities: lodEntities, Dirtiness: 0.2, Seed: seed*107 + int64(i)})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := rdf.WriteNTriples(&b, g); err != nil {
			return nil, err
		}
		want, err := directLODProfile(b.Bytes())
		if err != nil {
			return nil, err
		}
		in.lod = append(in.lod, b.Bytes())
		in.lodWant = append(in.lodWant, want)
	}
	reload, err := json.Marshal(map[string]string{"path": k.path, "manifest": k.manifestPath})
	if err != nil {
		return nil, err
	}
	in.reload = reload
	return in, nil
}

// directCSVProfile reads the bytes as the handler does and measures them
// with dq.Measure.
func directCSVProfile(b []byte) (csvProfile, error) {
	t, err := table.ReadCSV(bytes.NewReader(b), table.ReadCSVOptions{HasHeader: true, Name: "upload"})
	if err != nil {
		return csvProfile{}, err
	}
	p := dq.Measure(t, dq.MeasureOptions{ClassColumn: t.ColumnIndex("class")})
	out := csvProfile{Rows: p.Rows, Severities: map[string]float64{}}
	for _, c := range dq.AllCriteria() {
		out.Severities[c.String()] = p.Severity(c)
	}
	return out, nil
}

// directLODProfile ingests the bytes with core.IngestLOD.
func directLODProfile(b []byte) (lodProfile, error) {
	ing, err := core.IngestLOD(bytes.NewReader(b), "nt", rdf.ProjectOptions{LargestClass: true})
	if err != nil {
		return lodProfile{}, err
	}
	p := ing.Profile
	out := lodProfile{Triples: p.Triples, Entities: p.Entities, Measures: map[string]float64{
		"propertyCompleteness": p.PropertyCompleteness,
		"danglingLinkRatio":    p.DanglingLinkRatio,
		"sameAsRatio":          p.SameAsRatio,
		"labelCoverage":        p.LabelCoverage,
		"predicatesPerClass":   p.PredicatesPerClass,
		"classEntropy":         p.ClassEntropy,
	}}
	out.Projection.Class = ing.Class
	out.Projection.Rows = ing.Table.NumRows()
	out.Projection.Columns = ing.Table.NumCols()
	return out, nil
}

// mixedScript builds serve-mixed's per-connection scripts. Reload checks
// keep state (the last generation seen), which is safe because only
// connection 0 reloads.
func mixedScript(in *mixedInputs, seed int64, k *kbFiles) script {
	conns := serveConns()
	rngs := make([]*rand.Rand, conns)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed*104729 + int64(w)))
	}
	var lastGen uint64
	checkReload := func(body []byte) error {
		var resp struct {
			Generation   uint64 `json:"generation"`
			ManifestRoot string `json:"manifestRoot"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Generation <= lastGen {
			return fmt.Errorf("generation %d after %d: not strictly increasing", resp.Generation, lastGen)
		}
		lastGen = resp.Generation
		if resp.ManifestRoot != k.root {
			return fmt.Errorf("manifestRoot %q, want %q", resp.ManifestRoot, k.root)
		}
		return nil
	}
	return func(w, i int) op {
		switch {
		case w == 0 && i%reloadEvery == reloadEvery-1:
			return op{kind: kindReload, path: "/v1/kb/reload", ctype: "application/json", body: in.reload, check: checkReload}
		case i%100 == 50:
			j := (i/100 + w) % len(in.lod)
			return op{kind: kindLOD, path: "/v1/lod/profile", ctype: "application/n-triples", body: in.lod[j],
				check: func(body []byte) error {
					var got lodProfile
					if err := json.Unmarshal(body, &got); err != nil {
						return err
					}
					if !reflect.DeepEqual(got, in.lodWant[j]) {
						return fmt.Errorf("LOD profile %+v, core.IngestLOD gives %+v", got, in.lodWant[j])
					}
					return nil
				}}
		case i%50 == 25:
			j := (i/50 + w) % len(in.csv)
			return op{kind: kindCSV, path: "/v1/profile?class=class", ctype: "text/csv", body: in.csv[j],
				check: func(body []byte) error {
					var got csvProfile
					if err := json.Unmarshal(body, &got); err != nil {
						return err
					}
					if !reflect.DeepEqual(got, in.csvWant[j]) {
						return fmt.Errorf("CSV profile %+v, dq.Measure gives %+v", got, in.csvWant[j])
					}
					return nil
				}}
		default:
			p := rngs[w].Intn(len(in.pool))
			return op{kind: kindAdvise, path: "/v1/advise", ctype: "application/json", body: in.poolBodies[p], advice: in.pool[p]}
		}
	}
}

func runServeMixed(r *run) error {
	k, err := prepareKB(r)
	if err != nil {
		return err
	}
	in, err := makeMixedInputs(r.seed, k)
	if err != nil {
		return err
	}
	mk := func() script { return mixedScript(in, r.seed, k) }
	if r.traced {
		return serveTraced(r, k, mk, in)
	}
	return serveUntraced(r, k, mk)
}
