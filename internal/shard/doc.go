// Package shard is the data-parallel BSP trainer (Train/RunWorker, alstrain
// -workers N): real processes talking over actual sockets, where
// internal/cluster only simulates the clock.
//
//   - The coordinator holds the one copy of the ratings and sends each
//     worker process the rows of its static user-row (and item-row)
//     partition (Range) in two data frames; a worker opens no file. The
//     workers solve their rows and allgather the updated factors between
//     half-iterations over a length-prefixed TCP exchange relayed by the
//     coordinator. Row updates are pure functions of the row's ratings and
//     the fixed factors, both checked copies of the coordinator's, so the
//     distributed model is bit-identical to the single-process run on the
//     same seed.
//
//   - Worker supervision: every frame carries a CRC-32C trailer (corruption
//     is the typed ErrFrameCorrupt, never silent bad floats), workers
//     heartbeat while they compute, and a crashed, hung or corrupting rank is
//     respawned mid-run, sent its rows again and reseeded from the in-memory
//     factors at the interrupted half-iteration. Once the respawn budget
//     (TrainerConfig.MaxRespawns) is spent the cohort elastically downscales
//     to the survivors — legal because results are bit-identical across
//     worker counts. Workers self-terminate when the coordinator dies;
//     TrainerConfig.Interrupt stops a run gracefully at an iteration boundary
//     with a forced final checkpoint. The chaosnet subpackage is the
//     deterministic network-fault harness (sever/corrupt/truncate/drop/delay
//     exactly the Nth frame of a rank+direction) behind the
//     kill-at-every-frame sweep test and alstrain's -net-chaos flag.
//
// The coordinator writes ordinary checkpoints, which is all the serving fleet
// (internal/serve: Replica, Frontend) needs from it: every replica watches
// the checkpoint directory and hot-swaps its item slice.
package shard
