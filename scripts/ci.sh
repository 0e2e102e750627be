#!/bin/sh
# CI gate: gofmt, go vet, the full test suite under
# the race detector and again with shuffled test order, short fuzz
# smokes of the wire codec, of journal recovery and of the push planner's
# entry grid, and a one-second
# run of every benchmark workload as a correctness smoke. The engine's
# push scheduler fans closure
# planning over goroutines and the shard router plans epochs on
# persistent lane workers, so every change must pass -race, not just
# plain `go test` — the -race run covers TestShardedEquivalence, the
# sharded-vs-single-lane byte-identity differential, and the netsim
# cheat-injection matrix (TestCheat*: every cheat class detected, zero
# false quarantines on honest churn, across shards × seeds);
# -shuffle=on keeps tests honest about shared state
# (the wire pool is process-global).
#
# Contracts and their gates (DESIGN.md §9 has the seeded-defect table
# that decided which gate holds which):
#   the compiler     lane-owned state on its lane: lane phases are
#                    core.Lane methods (was seve-vet's laneaffinity); a
#                    handle panics on a pending stamped on another view
#                    (TestLaneRefusesForeignPending)
#   go vet           no by-value copy of world.ScratchSet/CountedSet
#                    (copylocks over the noCopy marker; was nocopy)
#   go test          a peer that stops reading holds no lock another
#                    caller needs: the net.Pipe stall tests
#                    (TestStalledClientWriteHoldsNoLock,
#                    TestStalledJoinerHoldsNoServerLock; was lockscope),
#                    run again -count=20 below;
#                    pool ownership: wire.Outstanding reads zero when the
#                    tests of wire, transport, durable, core, shard and
#                    netsim end (wiretest.Main), and a released frame
#                    panics when read (was pooldiscipline); no map order
#                    on byte-identical paths: the pinned digests
#                    (TestPinnedBytes, TestClientReplicaEquivalence) and
#                    TestBaselinesRunTwice (was detorder); actions
#                    confined to their declared read/write sets
#                    (action.CheckAccess under Config.Strict in every
#                    harness and example; was rwset); Ordered frames
#                    never shed, only Batch frames merged
#                    (TestSendQueueOrderedNeverShed; was deliveryclass
#                    rules 2-3); a reply's delivery class is the one its
#                    frame type admits, derived by core's newReply and
#                    asserted by SendQueue.Enqueue on every frame the
#                    tests enqueue (was deliveryclass rule 1); the push
#                    planner's entry grid never
#                    omits an entry Equation (1) accepts, whatever the
#                    declared positions and radii (TestPushGridEquivalence,
#                    FuzzPushGrid); a client-declared influence centre the
#                    one cell function (geom.CellOf) refuses — NaN, ±Inf,
#                    off the keys — routes its objects by the id hash and
#                    deals no lane cell (TestHostileCentresRouteByID);
#                    every held ζCS version equals the serial replay as
#                    of its position, with client GC on as shipped:
#                    oracletest.CheckStable in the churn, kill-recover,
#                    supersession, resume and replica tests, run by the
#                    -race pass below; the journal carries no replies:
#                    the engine never calls Journal.BatchRetained
#                    (TestJournalFeedEmitsGroups); a session recovered
#                    from the journal resumes by snapshot
#                    (TestRestartBootFence: three resumes, one from a
#                    client that applied no batch, all snapshots;
#                    TestDurableChurnKillRecover reads no suffix resume),
#                    a retry after a lost post-restart CatchUp too
#                    (TestRestartResumeRetriedAfterLostCatchUp), and a
#                    client refuses a CatchUp from a new boot that is not
#                    a snapshot
#
# The pool balance is checked once per test binary, after all its tests,
# so test order does not matter and it holds under -shuffle=on. The fuzz
# smokes skip it on purpose: the targets run in fuzz workers, whose exit
# status the coordinating process does not read (wiretest.Main).
#
# The fuzz passes keep Decode honest against hostile frames, recovery
# against hostile store directories (two generations' images and
# segments, and an older layout's meta lineage, which Open must refuse
# untouched), and the entry grid against hostile coordinates and radii, beyond the checked-in
# corpora; the benchmark smokes run the whole action
# journey on all five workloads — the benchmark is the repository's only
# meter, so its per-pass correctness gate guards each of them — and no
# timing is read; the coverage gate keeps the protocol engine, the
# reconnect-capable transport, the shard router (which owns lane
# placement) and the durable store from losing test reach as they grow
# (baselines sit a little under the measured coverage so legitimate
# refactors don't trip on noise).
set -eu
cd "$(dirname "$0")/.."

# Formatting: every tracked Go file is gofmt-clean.
unformatted="$(git ls-files '*.go' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
go test -race ./...
# The router and the push scheduler pick their inline or their parallel
# branch (runPhase, execTasks) from GOMAXPROCS at construction; every
# benchmark workload runs the inline one. Run both on any host.
go test -race -cpu 1,4 ./internal/core ./internal/shard
# The stall tests and the two shutdown tests beside them wait on
# deadlines; green they finish in milliseconds, so a run of twenty under
# -race is where a deadline flake would show first.
go test -race -count=20 -run '^(TestStalledClientWriteHoldsNoLock|TestStalledJoinerHoldsNoServerLock|TestServerCloseDisconnectsEveryone|TestCloseDuringResumeStopsRun)$' ./internal/transport
go test -shuffle=on ./...
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz '^FuzzRecover$' -fuzztime 10s ./internal/durable
go test -run '^$' -fuzz '^FuzzPushGrid$' -fuzztime 10s ./internal/core

# Correctness smokes: a pass exits non-zero when its gate fails
# (violations, unresolved submissions, Installed != commits, ζCS != ζS,
# a journal that does not recover to ζS, counts differing across passes).
for w in walk64 crowd128 tick1024 lanes4_wal churn64; do
    go run ./bench -workload "$w" -seconds 1 >/dev/null
done
echo "bench smokes: all five workloads pass their gates"

# Coverage gate: statement coverage of the packages the resume protocol
# cuts through, of the integrity layer, of the shard router and of the
# durable store must not regress below the floor.
cover_gate() {
    pkg="$1"
    floor="$2"
    profile="$(mktemp)"
    go test -coverprofile="$profile" "$pkg" >/dev/null
    total="$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')"
    rm -f "$profile"
    if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
        echo "coverage gate: $pkg at ${total}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage gate: $pkg ${total}% (floor ${floor}%)"
}
cover_gate ./internal/core 90
cover_gate ./internal/transport 75
cover_gate ./internal/integrity 90
cover_gate ./internal/shard 88
cover_gate ./internal/durable 85
