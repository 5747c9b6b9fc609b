package obscli

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestFlagWiringAcrossCLIs pins the contract the README's worked examples
// rely on: every CLI that registers Options honors -obs-dump, -cpuprofile,
// -memprofile, and -obs-listen with identical semantics — the teardown
// artifacts appear wherever the run exits cleanly, daemon or batch,
// subcommand or flat flags. One table, all five binaries.
func TestFlagWiringAcrossCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess flag-wiring sweep: skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"puffer/cmd/puffer-daily", "puffer/cmd/puffer-sweep", "puffer/cmd/figures",
		"puffer/cmd/puffer-serve", "puffer/cmd/puffer-load")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building CLIs: %v", err)
	}

	scratch := t.TempDir()
	sweepFile := filepath.Join(scratch, "tiny-sweep.json")
	if err := os.WriteFile(sweepFile, []byte(`{
		"name": "tiny",
		"base": {
			"daily": {"days": 2, "sessions": 8, "ablation": false},
			"model": {"hidden": [4], "horizon": 2},
			"train": {"epochs": 1},
			"shard_size": 4
		},
		"axes": [{"field": "seed", "values": [5]}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		daemon bool // runs until signaled: wait for readiness, then SIGTERM
	}{
		{
			name: "puffer-daily",
			args: []string{"-days", "2", "-sessions", "8", "-epochs", "1", "-ablation=false", "-q"},
		},
		{
			name: "puffer-sweep",
			args: []string{"run", "-sweep", sweepFile,
				"-index", filepath.Join(scratch, "sweep-index.jsonl"), "-q"},
		},
		{
			name: "figures",
			args: []string{"-fig", "5", "-q"},
		},
		{
			name:   "puffer-serve",
			args:   []string{"-day", "0", "-sessions", "8", "-listen", "127.0.0.1:0", "-q"},
			daemon: true,
		},
		{
			name: "puffer-load",
			args: []string{"-virtual", "-day", "0", "-sessions", "8", "-q"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			dump := filepath.Join(dir, "metrics.json")
			cpu := filepath.Join(dir, "cpu.prof")
			mem := filepath.Join(dir, "mem.prof")
			args := append(append([]string{}, tc.args...),
				"-obs-listen", "127.0.0.1:0", "-obs-dump", dump,
				"-cpuprofile", cpu, "-memprofile", mem)
			cmd := exec.Command(filepath.Join(bin, tc.name), args...)
			cmd.Stderr = os.Stderr
			if tc.daemon {
				out, err := cmd.StdoutPipe()
				if err != nil {
					t.Fatal(err)
				}
				if err := cmd.Start(); err != nil {
					t.Fatal(err)
				}
				sc := bufio.NewScanner(out)
				if !sc.Scan() {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("daemon produced no readiness line")
				}
				go func() { // drain so the drain summary never blocks the pipe
					for sc.Scan() {
					}
				}()
				cmd.Process.Signal(syscall.SIGTERM)
				waitErr := make(chan error, 1)
				go func() { waitErr <- cmd.Wait() }()
				select {
				case err := <-waitErr:
					if err != nil {
						t.Fatalf("daemon exited %v on SIGTERM", err)
					}
				case <-time.After(30 * time.Second):
					cmd.Process.Kill()
					t.Fatal("daemon did not exit on SIGTERM")
				}
			} else if out, err := cmd.Output(); err != nil {
				t.Fatalf("%s %v failed: %v\noutput:\n%s", tc.name, args, err, out)
			}

			blob, err := os.ReadFile(dump)
			if err != nil {
				t.Fatalf("-obs-dump artifact: %v", err)
			}
			var snap map[string]any
			if err := json.Unmarshal(blob, &snap); err != nil {
				t.Fatalf("-obs-dump is not valid JSON: %v", err)
			}
			for _, key := range []string{"counters", "gauges", "histograms"} {
				if _, ok := snap[key]; !ok {
					t.Fatalf("-obs-dump snapshot missing %q section", key)
				}
			}
			for flagName, path := range map[string]string{"-cpuprofile": cpu, "-memprofile": mem} {
				st, err := os.Stat(path)
				if err != nil {
					t.Fatalf("%s artifact: %v", flagName, err)
				}
				if st.Size() == 0 {
					t.Fatalf("%s artifact is empty", flagName)
				}
			}
		})
	}
}
