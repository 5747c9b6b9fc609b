package fleet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/experiment"
	"puffer/internal/media"
	"puffer/internal/runner"
)

// obsRecorder is a DecideHook that decides inline and keeps a deep copy of
// every observation the session saw (the session loop reuses its buffers).
type obsRecorder struct{ stream []abr.Observation }

func (r *obsRecorder) Decide(alg abr.Algorithm, obs *abr.Observation, _ float64) int {
	c := *obs
	c.History = append([]abr.ChunkRecord(nil), obs.History...)
	c.Horizon = make([]media.Chunk, len(obs.Horizon))
	for i, ch := range obs.Horizon {
		ch.Versions = append([]media.Encoding(nil), ch.Versions...)
		c.Horizon[i] = ch
	}
	r.stream = append(r.stream, c)
	return alg.Choose(obs)
}

// TestStagedMatchesChoose is the differential for the one split decision
// both the fleet engine and the serving daemon run: for every arm of the
// daily loop's two mixtures, real observation streams are replayed through
// Staged with several sessions' Prepare calls interleaved into one shared
// flush, and every Finish must equal a fresh twin algorithm's Choose — at
// every chunk, across the Reset at each stream start, and with sessions on
// a second model (a new service group) joining mid-run.
func TestStagedMatchesChoose(t *testing.T) {
	const seed, sessionsPerArm, steps = 17, 3, 90
	var slotA, slotB runner.ModelSlot
	slotA.Store(testTTP(3))
	slotB.Store(testTTP(4))

	type arm struct {
		name   string
		scheme experiment.Scheme
		joinAt int // step at which the arm's sessions start deciding
		ttp    bool
	}
	var arms []arm
	for _, sc := range runner.BootstrapSchemes(seed) {
		arms = append(arms, arm{name: "bootstrap/" + sc.Name, scheme: sc})
	}
	for _, sc := range runner.DeploySchemes(&slotA, seed) {
		arms = append(arms, arm{name: "deploy/" + sc.Name, scheme: sc, ttp: sc.Name == "Fugu"})
	}
	for _, sc := range runner.DeploySchemes(&slotB, seed) {
		arms = append(arms, arm{name: "rotated/" + sc.Name, scheme: sc, joinAt: steps / 2, ttp: sc.Name == "Fugu"})
	}

	type replay struct {
		arm    *arm
		stream []abr.Observation
		staged *Staged
		twin   abr.Algorithm
		rows   int
	}
	var replays []*replay
	env := experiment.DefaultEnv()
	for i := range arms {
		a := &arms[i]
		for id := 0; len(replays) < (i+1)*sessionsPerArm; id++ {
			if id == 100 {
				t.Fatalf("%s: too few of 100 viewers stayed for %d decisions", a.name, steps)
			}
			var rec obsRecorder
			rng := rand.New(rand.NewSource(int64(1000*i + id)))
			experiment.RunSessionHooked(&env, a.scheme.New(), rng, id, a.scheme.Name, 0, nil, &rec)
			if len(rec.stream) < steps {
				continue // a short visit; take the next viewer
			}
			replays = append(replays, &replay{arm: a, stream: rec.stream[:steps],
				staged: NewStaged(a.scheme.New()), twin: a.scheme.New()})
		}
	}

	svc := NewInferenceService()
	midRunResets := 0
	for k := 0; k < steps; k++ {
		var live []*replay
		for _, r := range replays {
			if k >= r.arm.joinAt {
				live = append(live, r)
			}
		}
		for _, r := range live {
			o := &r.stream[k-r.arm.joinAt]
			if o.ChunkIndex == 0 {
				r.staged.Reset()
				if k > r.arm.joinAt {
					midRunResets++
				}
			}
			rows := r.staged.Prepare(o)
			r.rows += len(rows)
			svc.Enqueue(rows)
		}
		svc.Flush()
		for _, r := range live {
			o := &r.stream[k-r.arm.joinAt]
			if o.ChunkIndex == 0 {
				r.twin.Reset()
			}
			if got, want := r.staged.Finish(o), r.twin.Choose(o); got != want {
				t.Fatalf("%s step %d (chunk %d): staged decision %d, Choose %d",
					r.arm.name, k, o.ChunkIndex, got, want)
			}
		}
	}

	for _, r := range replays {
		if (r.rows > 0) != r.arm.ttp {
			t.Errorf("%s staged %d rows, TTP arm = %v", r.arm.name, r.rows, r.arm.ttp)
		}
	}
	if midRunResets == 0 {
		t.Error("no replayed session crossed a stream start after its first decision")
	}
}

// TestSplitDecisionLivesInOneFile pins the one-mechanism contract: outside
// staged.go, no non-test file of the fleet engine or the serving daemon
// names either half of abr.DeferredAlgorithm.
func TestSplitDecisionLivesInOneFile(t *testing.T) {
	checked := 0
	for _, dir := range []string{".", "../serve"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				checked++
				if dir == "." && filepath.Base(path) == "staged.go" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && (id.Name == "PrepareChoose" || id.Name == "FinishChoose") {
						t.Errorf("%s names %s: the split decision belongs to fleet.Staged (staged.go)", path, id.Name)
					}
					return true
				})
			}
		}
	}
	if checked < 10 {
		t.Fatalf("parsed only %d non-test files of internal/fleet and internal/serve", checked)
	}
}
