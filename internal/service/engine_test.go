package service

import (
	"context"
	"io"
	"testing"

	"leakyway/internal/experiments"
	"leakyway/internal/scenario"
	"leakyway/internal/telemetry"
)

// TestEngineRunnerRecyclesMachines guards the daemon's path onto the
// recycling trial kernel. A daemon job carries a live cancellable context,
// a Progress tracker and a counting trace collector; none of them may push
// the engine onto a path that builds every machine from scratch, and the
// counting collector's hier tracing may not allocate per fill. Either
// regression multiplies the allocations of a quick fig8 far beyond the
// plain (CLI-wired) run's, so after a warm-up the wired run must allocate
// at most 1.5x what the plain run does.
func TestEngineRunnerRecyclesMachines(t *testing.T) {
	spec, ok := experiments.BuiltinSpec("fig8")
	if !ok {
		t.Fatal("no builtin fig8 spec")
	}
	plain := func() {
		ctx := experiments.NewContext(io.Discard)
		ctx.Seed = 42
		ctx.Quick = true
		ctx.Jobs = 1
		if _, err := experiments.RunSpecs(ctx, []*scenario.Spec{spec}); err != nil {
			t.Fatal(err)
		}
	}
	wired := func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sub := Submission{Seed: 42, Jobs: 1, Quick: true, Platform: "both"}
		if _, err := EngineRunner(ctx, sub, spec, telemetry.NewProgress()); err != nil {
			t.Fatal(err)
		}
	}
	plainAllocs := testing.AllocsPerRun(2, plain)
	wiredAllocs := testing.AllocsPerRun(2, wired)
	t.Logf("quick fig8 allocations per run: plain %.0f, EngineRunner wiring %.0f (%.2fx)",
		plainAllocs, wiredAllocs, wiredAllocs/plainAllocs)
	if wiredAllocs > 1.5*plainAllocs {
		t.Fatalf("EngineRunner-wired fig8 allocates %.0f per run, %.1fx the plain run's %.0f; want at most 1.5x",
			wiredAllocs, wiredAllocs/plainAllocs, plainAllocs)
	}
}
