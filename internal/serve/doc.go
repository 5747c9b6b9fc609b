// Package serve is the wall-clock serving layer: it promotes the
// virtual-time fleet engine to a real daemon speaking a small
// length-prefixed request/response protocol over TCP, as Fugu ran on
// puffer.stanford.edu.
//
// The split of labor mirrors the paper's deployment. The *client* (one TCP
// connection per session) simulates the viewer, player buffer, and network
// path — it runs the real experiment.RunSessionHooked with a DecideHook
// that ships each ABR observation to the server. The *server* keeps every
// per-session ABR algorithm and the models. A connection's handler owns its
// session's algorithm (a fleet.Staged): it runs the pre-flush half of each
// decision, sends the staged feature rows down a bounded queue
// (backpressure), and after the wake-up runs the planning half and writes
// the reply. A single batcher goroutine owns only what connections share,
// the fleet.InferenceService: it drains the queue, merges the rows, runs one
// batched forward pass per model per flush — exactly as the fleet engine
// does in virtual time — and wakes each handler. A traced decision's server
// spans run prepare → queue_wait → batch_residency → finish → reply.
//
// Because the decision logic is the same code on both paths — fleet.Staged,
// the InferenceService, experiment.RunSessionHooked — a trial served over
// sockets is *byte-identical* to the same trial on the virtual-time fleet
// engine at the same scenario.Spec, day, and seed.
// Plan pins that identity: it derives the trial (seeds, scheme names,
// environment, arrival schedule) from a spec, the client validates its plan
// hash against the server's in the handshake, and RunVirtual is the
// deterministic twin the differential smoke compares against.
package serve
