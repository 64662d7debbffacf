package eval

import (
	"sync"
	"testing"

	"openbi/internal/mining"
	"openbi/internal/synth"
)

// TestCrossValidateWithArenaMatchesPlain checks the arena path is a pure
// allocation strategy: for every standard-suite algorithm, cross-validation
// drawing scratch from a reused arena must produce exactly (==) the metrics
// of the plain path, with the same arena carried across algorithms the way
// an experiment worker carries it across grid cells.
func TestCrossValidateWithArenaMatchesPlain(t *testing.T) {
	ds := synth.MustMakeClassification(synth.ClassificationSpec{
		Rows: 150, Seed: 11, Classes: 3, ClassBalance: 0.4,
	})
	arena := mining.NewArena()
	for _, name := range mining.SuiteNames() {
		factory := mining.StandardSuite(5)[name]
		plain, err := CrossValidate(factory, ds, 4, 99)
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		withArena, err := CrossValidateWith(factory, ds, 4, 99, arena)
		if err != nil {
			t.Fatalf("%s arena: %v", name, err)
		}
		if withArena != plain {
			t.Errorf("%s: arena metrics %+v != plain %+v", name, withArena, plain)
		}
	}
}

// TestSharedIndexArenaConcurrency runs the full suite on several goroutines
// at once over one shared dataset — shared presorted column index, shared
// cached column materializations — with a private arena per goroutine, and
// requires every goroutine to reproduce the sequential metrics exactly.
// Under -race this is the regression gate for the "workers only read shared
// state" contract of the experiment grid.
func TestSharedIndexArenaConcurrency(t *testing.T) {
	ds := synth.MustMakeClassification(synth.ClassificationSpec{
		Rows: 200, Seed: 21, Classes: 3, ClassBalance: 0.5,
	})
	ds.Index() // build eagerly, as experiment cell preparation does; workers only read it
	suite := mining.StandardSuite(5)
	names := mining.SuiteNames()

	want := make(map[string]Metrics, len(names))
	for _, name := range names {
		m, err := CrossValidate(suite[name], ds, 3, 77)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		want[name] = m
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := mining.NewArena()
			for _, name := range names {
				m, err := CrossValidateWith(suite[name], ds, 3, 77, arena)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, name, err)
					return
				}
				if m != want[name] {
					t.Errorf("worker %d %s: %+v != sequential %+v", w, name, m, want[name])
				}
			}
		}(w)
	}
	wg.Wait()
}
