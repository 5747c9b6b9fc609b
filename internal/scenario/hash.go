package scenario

import (
	"crypto/sha256"
	"encoding/hex"
)

// Hash is the canonical content hash of the experiment the spec describes:
// SHA-256 over CanonicalJSON with the documentation-only fields (Name,
// Notes) cleared. Two specs hash equal exactly when, field for field, they
// resolve to the same fully-defaulted experiment — regardless of JSON field
// order, omitted-vs-spelled-out defaults, or how they were authored
// (builder, registry, file).
func (s Spec) Hash() string {
	d := s.WithDefaults()
	d.Name, d.Notes = "", ""
	return hashJSON(d.CanonicalJSON())
}

// GuardHash is the projection of Hash that pins checkpoint manifests: the
// hash of the spec with every field that cannot change already-checkpointed
// days normalized away. Cleared before hashing, and why:
//
//   - Name, Notes — documentation only.
//   - Daily.Days — resuming a checkpoint with more (or fewer) days is the
//     core kill-and-resume workflow; completed days are untouched.
//   - Daily.Ablation — whether a frozen companion run happens beside this
//     one never changes this run's results.
//   - Engine (kind, arrival process, tick) — both engines are
//     byte-identical at the same seeds; an operator may freely resume a
//     session-engine checkpoint on the fleet engine.
//
// Everything else — environment, sessions/window/retrain, model, training,
// drift, seed, sharding — shapes results and stays in the guard.
func (s Spec) GuardHash() string {
	d := s.WithDefaults()
	d.Name, d.Notes = "", ""
	d.Daily.Days = defaultDays
	d.Daily.Ablation = ptr(true)
	d.Engine = EngineSpec{}.withEngineDefaults()
	return hashJSON(d.CanonicalJSON())
}

func hashJSON(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}
