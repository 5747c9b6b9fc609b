//go:build unix

package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"puffer/internal/core"
	"puffer/internal/dist"
	"puffer/internal/obs"
)

const (
	// testWorkerFlag re-enters this test binary as a dist worker, the way
	// the CLIs' hidden -dist-worker mode does.
	testWorkerFlag = "-scenario-test-dist-worker"
	// failDayEnv, when set to a day index, makes every test worker fail
	// building that day's trial — a day that errors on the coordinator.
	failDayEnv = "PUFFER_SCENARIO_TEST_FAIL_DAY"
)

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == testWorkerFlag {
		err := dist.Serve(os.Stdin, os.Stdout, func(spec []byte) (dist.DayFunc, error) {
			dayFn, err := DistTrialFactory(spec)
			if err != nil {
				return nil, err
			}
			return func(day int, model *core.TTP) (dist.DayTrial, error) {
				if os.Getenv(failDayEnv) == fmt.Sprint(day) {
					return dist.DayTrial{}, errors.New("injected day failure")
				}
				return dayFn(day, model)
			}, nil
		})
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunReapsDistPool: scenario.Run owns the dist worker pool for the
// whole run, so once it returns — after a clean run, or out of a day that
// errored with workers up — every worker process it started has exited and
// been reaped.
func TestRunReapsDistPool(t *testing.T) {
	for _, failDay := range []string{"", "1"} {
		t.Run("fail-day="+failDay, func(t *testing.T) {
			t.Setenv(failDayEnv, failDay)
			eventsPath := filepath.Join(t.TempDir(), "run.events")
			events, err := obs.OpenEventLog(eventsPath)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(testSpec(13, DistWorkers(2)), RunOptions{
				DistCommand: []string{os.Args[0], testWorkerFlag},
				Events:      events,
			})
			events.Close()
			if (err != nil) != (failDay != "") {
				t.Fatalf("Run error = %v with injected failure day %q", err, failDay)
			}
			// The worker's own report, not a retried broken pipe.
			if want := "building day 1 trial: injected day failure"; err != nil && !strings.Contains(err.Error(), want) {
				t.Errorf("Run error = %v, want the worker's %q", err, want)
			}

			evs, err := obs.ReadEvents(eventsPath)
			if err != nil {
				t.Fatal(err)
			}
			started := 0
			for _, ev := range evs {
				if ev.Type != "dist_worker_start" {
					continue
				}
				started++
				pid := int(ev.Fields["pid"].(float64))
				// Signal 0 probes for existence; a zombie still exists, so
				// this also catches an exited worker nobody waited for.
				if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("worker pid %d outlived scenario.Run (kill -0: %v)", pid, err)
				}
			}
			if started < 2 {
				t.Fatalf("saw %d dist_worker_start events, want the pool's 2 workers", started)
			}
		})
	}
}
