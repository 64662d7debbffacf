package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"openbi/internal/atomicfile"
	"openbi/internal/loadgen"
	"openbi/internal/replay"
)

// cmdReplay re-issues a recorded loadgen capture against a candidate
// server and reports the blast radius of whatever changed: top-1 advice
// flips, rank moves, predicted-kappa drift beyond -tolerance, broken down
// by the dominant quality defect of the affected requests.
//
// Baselines, mirroring loadgen's target modes:
//
//   - default: fresh responses diff against the capture's recorded
//     responses. Same KB generation => zero diffs (advice is byte-stable),
//     so any diff is a real behavior change.
//   - -against URL or -against-kb path: two-sided mode. Both servers are
//     asked fresh and diffed against each other; the capture only supplies
//     the request stream.
//
// -promote pins a zero-diff run as a golden (capture copy + response
// digest); -golden replays a pinned capture and fails on any digest
// drift — what `make replay-check` and CI run.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	capturePath := fs.String("capture", "", "loadgen capture to replay (see `openbi loadgen -record`)")
	target := fs.String("target", "", "candidate server base URL")
	selfserve := fs.Bool("selfserve", false, "serve the candidate in-process on 127.0.0.1:0")
	kbPath := fs.String("kb", "", "candidate knowledge base for -selfserve")
	against := fs.String("against", "", "two-sided mode: baseline server base URL")
	againstKB := fs.String("against-kb", "", "two-sided mode: serve this knowledge base in-process as the baseline")
	tolerance := fs.Float64("tolerance", 0, "allowed |Δ predictedKappa| per algorithm (0 = exact)")
	concurrency := fs.Int("concurrency", 8, "parallel replayed requests")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	allowTruncated := fs.Bool("allow-truncated", false, "replay the intact prefix of a capture with a torn tail or missing footer")
	failOnDiff := fs.Bool("fail-on-diff", false, "exit non-zero when the report has any diff (CI gate)")
	promote := fs.String("promote", "", "after the run, pin the capture and its response digest as a golden under this directory")
	golden := fs.String("golden", "", "verify this golden digest: refuse a swapped capture, fail on response drift")
	out := fs.String("out", "", "write the full JSON report here")
	maxExamples := fs.Int("max-examples", 10, "diff example lines kept in the report")
	fs.Parse(args)

	if *capturePath == "" {
		return fmt.Errorf("replay: -capture is required")
	}
	if (*target == "") == (!*selfserve) {
		return fmt.Errorf("replay: exactly one of -target or -selfserve is required")
	}
	if *against != "" && *againstKB != "" {
		return fmt.Errorf("replay: -against and -against-kb are mutually exclusive")
	}

	readOpt := loadgen.ReadOptions{AllowTruncated: *allowTruncated}
	var pinned *replay.Golden
	if *golden != "" {
		g, err := replay.LoadGolden(*golden)
		if err != nil {
			return err
		}
		// A swapped capture must fail here, before any replaying: zero
		// diffs against the wrong baseline proves nothing.
		if err := g.VerifyCapture(*capturePath); err != nil {
			return err
		}
		readOpt.Expect = &g.Spec
		pinned = &g
	}
	capture, err := loadgen.LoadCapture(*capturePath, readOpt)
	if err != nil {
		return err
	}
	if capture.Truncated {
		fmt.Fprintf(os.Stderr, "replay: warning: capture tail is torn; replaying the %d verified entries\n", len(capture.Entries))
	}

	ctx, cancel := runContext(0)
	defer cancel()

	if *selfserve {
		url, stop, err := startSelfServe(ctx, *kbPath, 64, -1, 1024)
		if err != nil {
			return err
		}
		defer stop()
		*target = url
	}
	if *againstKB != "" {
		url, stop, err := startSelfServe(ctx, *againstKB, 64, -1, 1024)
		if err != nil {
			return err
		}
		defer stop()
		*against = url
	}

	rep, err := replay.Replay(ctx, replay.Spec{
		Capture:     capture,
		Target:      *target,
		Baseline:    *against,
		Tolerance:   *tolerance,
		Concurrency: *concurrency,
		Timeout:     *timeout,
		MaxExamples: *maxExamples,
	})
	if err != nil {
		return explainRunError(err)
	}
	if !rep.TwoSided && rep.TargetKB.Generation != capture.Spec.KB.Generation {
		fmt.Fprintf(os.Stderr, "replay: note: capture was recorded against KB gen %d, candidate serves gen %d\n",
			capture.Spec.KB.Generation, rep.TargetKB.Generation)
	}
	fmt.Print(rep.Summary())

	if *out != "" {
		if err := atomicfile.Write(*out, 0o644, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Printf("replay report written to %s\n", *out)
	}
	if *promote != "" {
		goldenPath, err := replay.Promote(*promote, *capturePath, rep)
		if err != nil {
			return err
		}
		fmt.Printf("golden promoted: %s\n", goldenPath)
	}
	if pinned != nil {
		if err := pinned.VerifyReport(rep); err != nil {
			return err
		}
		fmt.Println("golden ok: responses match the promoted digest")
	}
	if *failOnDiff && rep.HasDiffs() {
		return fmt.Errorf("replay: %d diffs across %d compared requests (blast radius %.1f%%)",
			rep.Diffs, rep.Compared, 100*rep.BlastRadius())
	}
	return nil
}
