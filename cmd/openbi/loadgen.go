package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"openbi/internal/atomicfile"
	"openbi/internal/core"
	"openbi/internal/loadgen"
	"openbi/internal/server"
	"openbi/internal/synth"
)

// cmdLoadgen drives POST /v1/advise on a running openbi serve with a
// recorded profile mix and reports latency quantiles, throughput, and
// error/shed rates — or, with -sweep, steps offered load geometrically
// until the p99 budget blows and locates the saturation knee.
//
// Two ways to point it at a server:
//
//   - -target URL: any openbi serve already listening (load-test over the
//     wire, possibly from another machine).
//   - -selfserve: build engine + server in this process on 127.0.0.1:0 and
//     drive it over real TCP. One command, no setup — what `make bench`
//     and the CI smoke job use.
func cmdLoadgen(args []string) (retErr error) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	target := fs.String("target", "", "base URL of a running openbi serve (e.g. http://127.0.0.1:8080)")
	selfserve := fs.Bool("selfserve", false, "start an in-process server on 127.0.0.1:0 and load-test it")
	kbPath := fs.String("kb", "", "knowledge base for -selfserve (absent: a small KB is built in-process)")
	maxInflight := fs.Int("max-inflight", 64, "-selfserve admission control: concurrent advise calls (0 disables)")
	queueDepth := fs.Int("queue-depth", -1, "-selfserve admission control: bounded wait queue (-1 = max-inflight)")
	cacheSize := fs.Int("cache", 1024, "-selfserve advice LRU cache entries (0 disables)")

	duration := fs.Duration("duration", 10*time.Second, "measured phase per run (per level with -sweep)")
	warmup := fs.Duration("warmup", time.Second, "warmup phase excluded from statistics")
	concurrency := fs.Int("concurrency", 8, "parallel connections")
	rps := fs.Float64("rps", 0, "offered load for open-loop pacing (0 = closed loop)")
	mixName := fs.String("mix", "recorded", "workload mix: "+strings.Join(loadgen.MixNames(), " | "))
	seed := fs.Int64("seed", 1, "seed for the severity-vector sequence")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	record := fs.String("record", "", "capture anonymized request/response pairs as JSONL under this directory")
	out := fs.String("out", "", "write a benchjson snapshot (BENCH_serve.json shape) here")

	sweep := fs.Bool("sweep", false, "saturation sweep: step offered load until p99 blows the budget")
	sweepStart := fs.Float64("sweep-start", 100, "first offered level (rps)")
	sweepFactor := fs.Float64("sweep-factor", 2, "offered-load multiplier between levels")
	sweepMaxLevels := fs.Int("sweep-max-levels", 8, "level cap")
	sweepMinLevels := fs.Int("sweep-min-levels", 3, "levels always run, so the snapshot has a curve")
	p99Budget := fs.Duration("p99-budget", 50*time.Millisecond, "p99 latency budget defining the knee")

	smoke := fs.Bool("smoke", false, "fail unless the run saw non-zero throughput and zero 5xx (CI gate)")
	fs.Parse(args)

	if (*target == "") == (!*selfserve) {
		return fmt.Errorf("loadgen: exactly one of -target or -selfserve is required")
	}
	mix, err := loadgen.ParseMix(*mixName)
	if err != nil {
		return err
	}

	ctx, cancel := runContext(0)
	defer cancel()

	if *selfserve {
		url, stop, err := startSelfServe(ctx, *kbPath, *maxInflight, *queueDepth, *cacheSize)
		if err != nil {
			return err
		}
		defer stop()
		*target = url
	}

	spec := loadgen.Spec{
		Target:      *target,
		Mix:         mix,
		Concurrency: *concurrency,
		Duration:    *duration,
		Warmup:      *warmup,
		RPS:         *rps,
		Timeout:     *timeout,
		Seed:        *seed,
	}
	if *record != "" {
		// Pin the run configuration and the serving KB generation in the
		// capture header, so a replayer can verify what it is replaying. A
		// probe failure (non-openbi target) degrades to a zero KBInfo.
		kbInfo, kerr := loadgen.ProbeKB(ctx, nil, *target)
		if kerr != nil {
			fmt.Fprintln(os.Stderr, "loadgen: record: KB probe failed, capture header will carry no generation:", kerr)
		}
		rec, err := loadgen.NewRecorder(*record, loadgen.CaptureSpec{
			Mix:         *mixName,
			Seed:        *seed,
			Dim:         loadgen.DefaultDim,
			Concurrency: *concurrency,
			KB:          kbInfo,
		})
		if err != nil {
			return err
		}
		defer func() {
			// A Close error means the capture has no verifying footer — it
			// is truncated and must fail the command, not exit 0 with a
			// stderr whisper while CI promotes a broken golden.
			if cerr := rec.Close(); cerr != nil {
				cerr = fmt.Errorf("loadgen: capture %s is truncated: %w", rec.Path(), cerr)
				if retErr == nil {
					retErr = cerr
				} else {
					fmt.Fprintln(os.Stderr, cerr)
				}
			} else {
				fmt.Printf("recorded %d request/response pairs to %s\n", rec.Count(), rec.Path())
			}
		}()
		spec.Recorder = rec
	}

	var levels []*loadgen.Result
	var sweepRes *loadgen.SweepResult
	if *sweep {
		sweepRes, err = loadgen.RunSweep(ctx, loadgen.SweepSpec{
			Base:      spec,
			StartRPS:  *sweepStart,
			Factor:    *sweepFactor,
			MaxLevels: *sweepMaxLevels,
			MinLevels: *sweepMinLevels,
			P99Budget: *p99Budget,
		}, func(line string) { fmt.Fprintln(os.Stderr, line) })
		if sweepRes != nil {
			levels = sweepRes.Levels
		}
		if err != nil {
			return explainRunError(err)
		}
		if sweepRes.KneeRPS > 0 {
			fmt.Printf("saturation knee: %.0f rps offered sustained (%.1f/s achieved) within p99 budget %s\n",
				sweepRes.KneeRPS, sweepRes.KneeThroughput, sweepRes.Budget)
		} else {
			fmt.Printf("no offered level sustained the p99 budget %s (start lower than %.0f rps)\n",
				sweepRes.Budget, *sweepStart)
		}
	} else {
		res, err := loadgen.Run(ctx, spec)
		if err != nil {
			return explainRunError(err)
		}
		levels = []*loadgen.Result{res}
		fmt.Println(res.Summary())
	}

	if *out != "" {
		snap := loadgen.BuildSnapshot("LoadgenServeAdvise", levels, sweepRes)
		if err := atomicfile.Write(*out, 0o644, func(f *os.File) error {
			return loadgen.WriteSnapshot(f, snap)
		}); err != nil {
			return err
		}
		fmt.Printf("benchmark snapshot written to %s\n", *out)
	}

	if *smoke {
		var ok, s5xx int64
		for _, r := range levels {
			ok += r.StatusOK
			s5xx += r.Server5xx
		}
		if ok == 0 || s5xx > 0 {
			return fmt.Errorf("loadgen: smoke failed: %d ok responses, %d server errors", ok, s5xx)
		}
		fmt.Printf("smoke ok: %d successful responses, zero 5xx\n", ok)
	}
	return nil
}

// startSelfServe builds engine + server in-process and serves on a real
// 127.0.0.1 TCP socket, so the harness exercises the full network stack.
// When no usable KB is supplied it builds a small one from a synthetic
// reference dataset — slower to start, but the command stays one-shot.
func startSelfServe(ctx context.Context, kbPath string, maxInflight, queueDepth, cacheSize int) (url string, stop func(), err error) {
	eng, err := core.New(core.WithSeed(42))
	if err != nil {
		return "", nil, err
	}
	if kbPath != "" {
		f, err := os.Open(kbPath)
		if err != nil {
			return "", nil, fmt.Errorf("loadgen: opening -kb: %w", err)
		}
		loadErr := eng.LoadKB(f)
		f.Close()
		if loadErr != nil {
			return "", nil, fmt.Errorf("loadgen: loading %s: %w", kbPath, loadErr)
		}
		fmt.Fprintf(os.Stderr, "selfserve: loaded knowledge base (%d records) from %s\n", eng.KB().Len(), kbPath)
	} else {
		fmt.Fprintln(os.Stderr, "selfserve: no -kb; building a small knowledge base in-process...")
		ds, err := synth.MakeClassification(synth.ClassificationSpec{Rows: 80, Seed: 42})
		if err != nil {
			return "", nil, err
		}
		small, err := core.New(core.WithSeed(42), core.WithFolds(2))
		if err != nil {
			return "", nil, err
		}
		if _, err := small.RunExperiments(ctx, ds, "reference"); err != nil {
			return "", nil, explainRunError(err)
		}
		eng = small
	}

	opts := []server.Option{
		server.WithCacheSize(cacheSize),
		server.WithMaxInflight(maxInflight),
	}
	if maxInflight > 0 && queueDepth >= 0 {
		opts = append(opts, server.WithQueueDepth(queueDepth))
	}
	srv, err := server.New(eng, opts...)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}

	srvCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(srvCtx, ln) }()
	stop = func() {
		cancel()
		if err := <-done; err != nil {
			fmt.Fprintln(os.Stderr, "selfserve:", err)
		}
	}
	url = "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "selfserve: listening on %s (max-inflight %d)\n", url, maxInflight)
	return url, stop, nil
}
