package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"puffer/internal/nn"
)

// envBlock says where and how a result was taken, so a number can be
// compared only with numbers taken the same way.
type envBlock struct {
	CPUModel    string         `json:"cpu_model"`
	NumCPU      int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	GitSHA      string         `json:"git_sha"`
	Accelerated bool           `json:"nn_accelerated"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Repeats     int            `json:"repeats"`
	Short       bool           `json:"short,omitempty"`
	Sizes       map[string]int `json:"sizes"`
}

func environment(cfg config, sizes map[string]int, repeats int) envBlock {
	return envBlock{
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitSHA:      gitSHA(),
		Accelerated: nn.Accelerated(),
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Repeats:     repeats,
		Short:       cfg.short,
		Sizes:       sizes,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the checkout's HEAD; the benchmark also runs in exported trees
// that are not repositories, where it is "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
