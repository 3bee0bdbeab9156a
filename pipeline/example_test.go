package pipeline_test

import (
	"context"
	"fmt"
	"time"

	"puffer/internal/synth"
	"puffer/pipeline"
)

// A custom stage list instead of the default Fig. 2 flow: detailed
// placement is skipped, and a second routability-optimizer pass runs
// between placement and legalization. The optimizer is shared across
// stages and keeps the padding history of Eq. 15, so the second pass
// recycles against the first. The run has a deadline and checkpoints after
// every stage; each stage's checkpoint is delivered before the stage is
// announced.
func Example_customStages() {
	profile, err := synth.ProfileByName("OR1200")
	if err != nil {
		fmt.Println(err)
		return
	}
	rc, err := pipeline.NewRunContext(synth.Generate(profile, 3000, 1), pipeline.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}

	// One more routability-optimizer call on the converged placement,
	// before legalization freezes the padding into sites.
	secondPass := pipeline.StageFunc{
		StageName: "routability2",
		Fn: func(ctx context.Context, rc *pipeline.RunContext) error {
			info, err := rc.PadOptimizer().RunCtx(ctx)
			if err != nil {
				return err
			}
			rc.Result.PaddingRuns = append(rc.Result.PaddingRuns, info)
			rc.SetIters(1)
			return nil
		},
	}
	pl := pipeline.New(pipeline.GlobalPlace(), secondPass, pipeline.Legalize())
	pl.Checkpointer = func(cp *pipeline.Checkpoint) error {
		fmt.Println("checkpoint after", cp.Stage)
		return nil // a job server would cp.Save(path) here
	}
	pl.OnStage = func(st pipeline.StageStats, err error) {
		if err == nil {
			fmt.Println("stage", st.Name, "done")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := pl.Run(ctx, rc); err != nil {
		fmt.Println(err)
	}
	// Output:
	// checkpoint after place
	// stage place done
	// checkpoint after routability2
	// stage routability2 done
	// checkpoint after legalize
	// stage legalize done
}
