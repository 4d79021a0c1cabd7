#!/usr/bin/env bash
# Repo gate: formatting, lints, the tier-1 test suite (the whole workspace:
# the root manifest's default-members cover every crate), then smoke runs
# of every measurement pipeline.
# Usage: scripts/check.sh [--fix] [--full]
#   --fix   run `cargo fmt` instead of `cargo fmt --check`
#   --full  also regenerate every virtual-clock result at the recorded
#           scale and fail on any row that differs from results/
#           (`figures --check`; minutes)
set -euo pipefail
cd "$(dirname "$0")/.."

FIX=0
FULL=0
for arg in "$@"; do
    case "$arg" in
        --fix) FIX=1 ;;
        --full) FULL=1 ;;
        *) echo "usage: $0 [--fix] [--full]" >&2; exit 2 ;;
    esac
done

if [[ $FIX == 1 ]]; then
    cargo fmt --all
else
    cargo fmt --all -- --check
fi

cargo clippy --workspace --all-targets -- -D warnings

# The tier-1 suite.  The golden digest (euno-bench/tests/
# golden_determinism.rs, printed below; its history is on the constant)
# runs here, and it runs `EunoConfig::paper()` — `System::EunoBTree`, not
# the library default — so it moves only when the paper-faithful tree
# does.  PRs 18 and 20 (leaf hints, subtree hints) left it alone:
# `paper()` probes neither hint table and records in neither.
# The index node's field order moved it, once: `bptree.rs::IndexNode` is
# shared by every tree, `paper()` included, and `count` sharing a line
# with the first seven separators changes what a level costs.
GOLDEN="$(sed -n 's/^const GOLDEN_DIGEST: &str = "\(.*\)";$/\1/p' \
    crates/euno-bench/tests/golden_determinism.rs)"
GOLDEN_DEFAULT="$(sed -n 's/^const GOLDEN_DEFAULT_DIGEST: &str = "\(.*\)";$/\1/p' \
    crates/euno-bench/tests/golden_determinism.rs)"
[[ -n $GOLDEN && -n $GOLDEN_DEFAULT ]] || { echo "golden digest constant not found"; exit 1; }
echo "golden digest pinned at $GOLDEN (paper()) and $GOLDEN_DEFAULT (default())"
cargo build --release
cargo test -q

# Smoke-bench: one tiny figure run covering all four trees, whose run
# report is validated against the DESIGN.md §11 schema as it is written
# (a report that fails it is not written and the run exits 1).  Catches a
# broken measurement pipeline (empty latency, missing report keys) that
# unit tests alone would miss.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT

# The stress binary prints one row per tree; both Euno configurations
# must be among them, each by name and clean: `Euno-B+Tree` is
# `EunoConfig::paper()` (HTM upper region), `Euno-ReadOpt` is
# `EunoConfig::default()` (the validated walk).
both_euno_rows_clean() { # both_euno_rows_clean <stage name>
    for tree in 'Euno-B\+Tree' 'Euno-ReadOpt'; do
        grep -qE "^ +$tree .* invariants: clean" "$SMOKE/stress.out" \
            || { echo "$1: no clean $tree row"; exit 1; }
    done
}
# A stress preset over just those two (`--tree euno` selects them).
stress_both_euno() {
    cargo run --release -q -p euno-check --bin stress -- "$@" --tree euno \
        | tee "$SMOKE/stress.out"
    both_euno_rows_clean "stress $*"
}

figures() { cargo run --release -q -p euno-bench --bin figures -- "$@"; }
figures fig08_throughput --out "$SMOKE" --ops 300 --keys 20000 --threads 8 >/dev/null
echo "smoke-bench report OK"

# Trace smoke: the same figure with tracing + profiling on.  The report
# must carry per-run `profile` sections (validated as it is written), and
# the Chrome trace export must round-trip through the in-tree JSON parser
# (DESIGN.md §13; `write_trace` validates it before writing).  A small
# ring keeps the export cheap.  Then a thread
# sweep with profiling on: every figure runs its cells under the one
# command line, so a figure that sweeps threads keeps every other flag.
figures fig08_throughput --out "$SMOKE" --ops 300 --keys 20000 --threads 8 \
    --profile --trace "$SMOKE/trace.json" --trace-capacity 2048 >/dev/null
grep -q '"profile"' "$SMOKE/BENCH_fig08.json"
test -s "$SMOKE/trace.json"
test -s "$SMOKE/trace.json.folded"
figures fig10_scalability --out "$SMOKE" --ops 50 --keys 2000 --profile \
    --trace-capacity 2048 >/dev/null 2>&1
grep -q '"profile"' "$SMOKE/BENCH_fig10.json"
echo "smoke-trace report + export + thread-sweep profile OK"

# Hardware-rtm: the concurrent runtime elides on Intel RTM where CPUID
# reports it and runs the TL2 software transactions elsewhere, and says
# which.  The example exits 0 only if no cell transfer was lost, on
# whichever backend it got; its first line must name the backend CPUID
# calls for.  The dedicated concurrent-correctness suites — hot cell (both
# backends), permuted commit orders, transfer invariant, commit-path ABA
# (euno-htm's tl2_stm and aba_regression) — ran at their checked-in sizes
# under the tier-1 `cargo test` above.
cargo run --release -q --example hardware_rtm >"$SMOKE/rtm.out"
grep -qxE 'backend: (Rtm \(CPU reports RTM: true\)|Stm \(CPU reports RTM: false\))' "$SMOKE/rtm.out" \
    || { echo "hardware-rtm: backend is not the one CPUID calls for"; head -1 "$SMOKE/rtm.out"; exit 1; }
echo "hardware-rtm ($(head -1 "$SMOKE/rtm.out"); no transfer lost) OK"

# Held names: `Counter::Middles` and `ABORTS_MIDDLE` outlived the
# executor's middle path only because the frozen `benchmark/` imports
# them.  Nothing else may name (and so bump) them, and they may not
# outlive that import.
HELD='Middles|ABORTS_MIDDLE'
! grep -rnE "$HELD" crates/*/src | grep -v '^crates/euno-metrics/src/counters.rs:' \
    || { echo "held-names: a held counter name is used outside counters.rs"; exit 1; }
grep -qE "$HELD" benchmark/src/counters.rs || ! grep -qE "$HELD" crates/euno-metrics/src/counters.rs \
    || { echo "held-names: benchmark/ dropped the held names; delete them from counters.rs"; exit 1; }
# `ServeSnapshot::batch_shrinks` outlived the serve worker's drain-width
# controller because `benchmark/src/serve.rs` reads it.  Under crates/*/src
# only its declaration and the literal `0` that `snapshot()` sets may name
# it (no counter may feed it), and it may not outlive that read.
SHRINKS='batch_?shrinks'
SRV=crates/euno-serve/src/server.rs
! grep -rniE "$SHRINKS" crates/*/src \
    | grep -vE "^$SRV:[0-9]+: *(pub batch_shrinks: u64|batch_shrinks: 0),\$" \
    || { echo "held-names: batch_shrinks is set to something but 0"; exit 1; }
[[ $(grep -cE '^ *batch_shrinks: 0,$' "$SRV") == 1 ]] \
    || { echo "held-names: snapshot() no longer sets batch_shrinks to 0"; exit 1; }
grep -qE "$SHRINKS" benchmark/src/serve.rs || ! grep -qiE "$SHRINKS" "$SRV" \
    || { echo "held-names: benchmark/ stopped reading batch_shrinks; delete it from ServeSnapshot"; exit 1; }
# `ThreadStats::ops` and `ThreadStats::aborts` outlived their readers the
# same way: every count a run reports is on the thread's metric shard
# (DESIGN.md §14), and only the frozen benchmark still writes `stats.ops`
# and reads `stats.aborts.total()`.  No `stats.ops` anywhere else,
# `stats.aborts` only in the executor's one `record` line, and neither may
# outlive the benchmark's use.
! grep -rnE 'stats\.ops\b' crates src tests examples --include='*.rs' \
    || { echo "held-names: stats.ops is named outside benchmark/ (count ops with Counter::Ops)"; exit 1; }
! grep -rnE 'stats\.aborts\b' crates src tests examples --include='*.rs' \
    | grep -vE '^crates/euno-htm/src/exec\.rs:[0-9]+: +ctx\.stats\.aborts\.record\(cause\);$' \
    || { echo "held-names: stats.aborts is named outside exec.rs's record line (read the shard's counts)"; exit 1; }
for field in ops aborts; do
    grep -rqE "stats\.$field\b" benchmark/src \
        || { echo "held-names: benchmark/ stopped naming stats.$field; delete it from ThreadStats"; exit 1; }
done
echo "held-names (vestigial counters and fields unused, and still needed) OK"

# One copy: the B+tree's sequential phases are written once, in
# euno-htm/src/bptree.rs (DESIGN.md §4.9).  A second bisect anywhere under
# crates/*/src is a private copy of `upper_bound` / `lower_bound` growing
# back (both are the one `bisect` there), and a second
# `fn internal_insert` is the index insert doing the same.  So is the
# abort taxonomy (DESIGN.md §13): one `AbortCause::class`, no trace codes.
BISECT='(lo + hi) / 2'
bisects="$({ grep -rnF "$BISECT" crates/*/src || true; } | grep -vc '^crates/euno-htm/src/bptree.rs:' || true)"
[[ $bisects == 0 && $(grep -cF "$BISECT" crates/euno-htm/src/bptree.rs) == 1 ]] \
    || { echo "one-copy: a binary search outside bptree.rs's one bisect"; grep -rnF "$BISECT" crates/*/src; exit 1; }
inserts="$(cat crates/*/src/*.rs | grep -c 'fn internal_insert' || true)"
[[ $inserts -le 1 ]] \
    || { echo "one-copy: $inserts index-insert routines"; exit 1; }
! grep -rn 'codes::' crates/*/src || { echo "one-copy: trace code points are back"; exit 1; }
[[ $(grep -rlF 'AbortCause::Capacity =>' crates/*/src) == crates/euno-htm/src/abort.rs ]] \
    || { echo "one-copy: an AbortCause mapping outside abort.rs"; exit 1; }
# A run's measured window is each thread's books at its end minus one
# mark taken when its warm-up ends (DESIGN.md §14): nothing rolls a
# thread's books back.
! grep -rnE 'metrics_restore|ShardMark' crates/*/src \
    || { echo "one-copy: a warm-up rollback is back"; exit 1; }
# One seqno writer and one fence writer (DESIGN.md §4.4, §4.8): a leaf's
# six fence copies — an operation checks the one on its key's line — are
# written in `EunoLeaf::set_fence`, and its two copies of `seqno` — a scan
# step brackets its sections with both — are bumped in
# `EunoLeaf::bump_seqno`, and neither anywhere else in the crate's non-test
# code: a writer that wrote fewer than all copies would be trusted by the
# readers of the rest.
NODE=crates/euno-core/src/node.rs
CORE_SRC="$(awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ":" $0 }' crates/euno-core/src/*.rs)"
for pair in seqno:bump_seqno fence:set_fence; do
    word=${pair%%:*} writer=${pair#*:}
    writes="$(grep -E "(write|store[a-z_]*)\(.*$word" <<<"$CORE_SRC" || true)"
    inside="$(awk "/fn $writer/,/^    }\$/" "$NODE" | grep -cE "(write|store[a-z_]*)\(.*$word")"
    [[ $inside -ge 1 && $(grep -c . <<<"$writes") == "$inside" ]] \
        || { echo "one-copy: a $word copy written outside EunoLeaf::$writer"; echo "$writes"; exit 1; }
done
# One block-word writer (DESIGN.md §4.8): a leaf's CCM block is a line of
# its own, installed once — by CAS at the leaf's first conflict, by plain
# store on a leaf no thread can reach yet — and never replaced, so the
# word that names it is written in `EunoLeaf::install_block` and nowhere
# else, and the leaf's own words — on the segments' link words, or segment
# 0's spare ones — are reached through node.rs alone.  The leaf holds no
# `Ccm` by value: the block is the CCM.
BLOCK_WRITE='block_cell\(\)\.(store|cas|fetch|swap)[a-z_]*\(|write\([^;]*block_cell\(\)'
block_writes="$(grep -rnE "$BLOCK_WRITE" crates/euno-core/src || true)"
installs="$(awk '/fn install_block/,/^    }$/' "$NODE" | grep -cE "$BLOCK_WRITE" || true)"
strays="$(grep -rnE 'block_cell\(\)|own_word\(|\.(link|spare)\(\)' crates/euno-core/src \
    | grep -vE "^$NODE:|^crates/euno-core/src/segment.rs:" || true)"
[[ $installs -ge 1 && $(grep -c . <<<"$block_writes") == "$installs" && -z $strays ]] \
    || { echo "one-copy: the block word written outside EunoLeaf::install_block"; echo "$block_writes"; echo "$strays"; exit 1; }
! awk '/^pub struct EunoLeaf/,/^}$/' "$NODE" | grep -qw Ccm \
    || { echo "one-copy: EunoLeaf holds a Ccm by value"; exit 1; }
# One segment layout (DESIGN.md §8): a segment is one line-aligned struct
# — its fence copy, a link word, the keys and the values — for every
# geometry, and it keeps no count: a free slot holds KEY_SENTINEL, and the
# count is the index of the first one.
SEG=crates/euno-core/src/segment.rs
[[ $(grep -c 'align(64)' "$SEG") == 1 ]] \
    || { echo "one-copy: segment.rs lays out a second segment struct"; grep -n 'align(64)' "$SEG"; exit 1; }
! grep -nE '^\s*(pub(\([a-z]+\))? )?count\s*:' "$SEG" \
    || { echo "one-copy: a segment keeps a count word"; exit 1; }
# One word type and one generator: a cell is a `u64` (`TxCell` takes no
# type argument, no `TxWord` trait converts into it), and euno-rng's
# `SmallRng` carries its draws as its own methods — no `rand`-shaped trait
# comes back beside it.
! grep -rnE 'trait TxWord|TxCell<|trait (Rng|RngCore|SeedableRng|Standard)\b' crates/*/src \
    || { echo "one-copy: a second word type or a rand-shaped generator trait is back"; exit 1; }
# One conflict window (DESIGN.md §4.2): the check scans the committed
# window newest first, and no per-line index shadows it.
! grep -rnE 'struct (AccessList|Spills)\b|line_index' crates/euno-htm/src \
    || { echo "one-copy: a per-line conflict index is back beside the window"; exit 1; }
echo "one-copy (one bisect, in bptree.rs; no private index insert; one abort mapping; one seqno writer, one fence writer; one block-word writer, no Ccm in the leaf; one segment struct, no count word; one cell word, one generator type; no line index beside the window) OK"

# Unsafe confined (DESIGN.md §4.4): nodes are read through bptree.rs's Guard,
# so no tree crate says `unsafe`, and euno-serve's queues are std's. Only
# the files of euno-htm that own memory may (every other crate, and the
# umbrella crate, is `forbid(unsafe_code)`):
OWNS='crates/euno-htm/src/(ctx|virt|tl2|rtm)'         # the backends' raw line loads
OWNS+='|crates/euno-htm/src/(arena|word)'             # node allocation; a cell's atomic view
OWNS+='|crates/euno-htm/src/bptree'                   # Guard's one checked cast
! grep -rlw unsafe crates/*/src src | grep -vxE "($OWNS)\.rs" \
    || { echo "unsafe-confined: unsafe outside the files that own memory"; exit 1; }
# Each of those files keeps the count it has; every one of them states its
# argument, as `clippy::undocumented_unsafe_blocks` (denied in euno-htm's
# lib.rs) checks. A cell is one `u64` word, `Send` and `Sync` by its
# `AtomicU64`: word.rs keeps the `as_lock` cast and no `unsafe impl`.
for pin in bptree:1 word:1 arena:7 ctx:5 tl2:5 rtm:10 virt:1; do
    f=crates/euno-htm/src/${pin%:*}.rs
    [[ $(grep -cw unsafe "$f") == "${pin#*:}" ]] \
        || { echo "unsafe-confined: $f says unsafe $(grep -cw unsafe "$f") times, not ${pin#*:}"; grep -nw unsafe "$f"; exit 1; }
done
echo "unsafe-confined (unsafe only in euno-htm, pinned per file: bptree 1, word 1, arena 7, ctx 5, tl2 5, rtm 10, virt 1) OK"

# Docs: a backticked code name in DESIGN.md or README.md — an identifier or
# a path of them, maybe with `()` or generic arguments — must name
# something under crates/, src/, tests/, examples/, benchmark/src or
# scripts/ (an identifier in a .rs / .sh / .toml file, or a file's stem),
# so a removal that leaves its name in the text fails here.  This file is
# not searched: it names what must stay gone.  DOCS_ALLOW holds the spans
# the text may keep although nothing defines them: external names, and
# history — each with what removed it.
DOCS_ALLOW=(
    criterion parking_lot          # external crates the workspace replaced (DESIGN.md §6)
    no_std                         # a Rust attribute, not a name of ours
    EunoConfig::middle_path        # the executor's middle path, its knobs,
    RetryPolicy::middle_retries    #   figure and report key (DESIGN.md §4.3)
    fig13_threepath middle_rate
    EunoLeaf::seqno_beside_fence   # the upper region's pair section, replaced
    seqno_beside_fence PAIR_ROUNDS #   by the fence check (DESIGN.md §4.4, §8)
    GET_TWO_STEP_ONE_IN            # the sampled two-step get (DESIGN.md §4.4)
    get_read_opt                   # the first episode-free get, now `locate` + leaf read
    scan_chain scan_read_opt       # the two scans before the one walk (DESIGN.md §4.7)
    serve_bench                    # the wall-clock serve sweep (DESIGN.md §15)
)
DOCS_SRC=(crates src tests examples benchmark/src scripts)
known="$( {
    grep -rhowE '[A-Za-z_][A-Za-z0-9_]*' "${DOCS_SRC[@]}" \
        --include='*.rs' --include='*.sh' --include='*.toml' --exclude=check.sh
    find "${DOCS_SRC[@]}" -type f -printf '%f\n' | sed 's/\..*//'
} | sort -u)"
dangling="$(perl -0777 -ne '
    (my $text = $_) =~ s/^```.*?^```//gms;
    while ($text =~ /`([^`]+)`/g) {
        my $span = $1;
        next unless $span =~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*(<[^<>]*>)?(\(\))?$/;
        print "$ARGV\t$span\t$_\n" for $span =~ /[A-Za-z_][A-Za-z0-9_]*/g;
    }' DESIGN.md README.md \
    | awk -F'\t' -v allow="${DOCS_ALLOW[*]}" '
        BEGIN { n = split(allow, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
        NR == FNR { known[$0] = 1; next }
        !($3 in known) && !($2 in ok) { print $1 ": `" $2 "`" }' <(printf '%s\n' "$known") - \
    | sort -u)"
[[ -z $dangling ]] \
    || { echo "docs: backticked names that resolve nowhere (fix the text, or list them in DOCS_ALLOW with what removed them):"; echo "$dangling"; exit 1; }
echo "docs (every backticked code name in DESIGN.md and README.md resolves, ${#DOCS_ALLOW[@]} allowed) OK"

# API docs: rustdoc over every workspace crate with its warnings as
# errors, so an intra-doc link that resolves nowhere, or from public
# documentation to a private item, fails here rather than in a reader's
# browser.  `--keep-going` reports every crate's errors in one run.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --keep-going -q
echo "api-docs (rustdoc with -D warnings over the workspace) OK"

# One seam: which engine runs a transaction is decided once, in
# `Runtime::new`, as a `Backend`; each backend's protocol is one module of
# euno-htm (virt.rs / tl2.rs / rtm.rs; DESIGN.md §4.1).  No build option
# selects an engine, no second lock-elision executor exists, and outside
# those three modules nothing under crates/*/src branches on `mode()`,
# `rtm_active()` or a per-access hardware flag (euno-sim's
# `assert_eq!(rt.mode(), …)` is not a branch).  What shared code holds is
# one dispatch on `backend()` per engine entry point — eleven lines:
#   ctx.rs   note_access (an optimistic section's footprint is kept only
#            where it is consulted), publish_direct_write, end_episode
#            (every episode's one end: an optimistic read, a locked write,
#            a fallback section, a transaction's commit, an aborted
#            attempt and its refund), tx_begin, tx_read, fb_acquire,
#            fb_release, optimistic_snapshot, optimistic_validate;
#   exec.rs  the attempt (software episode or hardware transaction);
#   lock.rs  LockWord's one blocking acquire.
# Beside them: `Runtime::forget_node_heat` on the field itself, the
# `Backend::mode` table, and the two lock-clock
# primitives every lock spelling is written over (`ThreadCtx::
# vlock_free_at`, `vlock_hold`), which dispatch inside virt.rs.
BACKENDS='^crates/euno-htm/src/(virt|tl2|rtm)\.rs:'
! grep -rnE 'hw[-]rtm|Hw[R]egion' Cargo.toml crates/*/Cargo.toml crates examples tests scripts \
        --include='*.toml' --include='*.rs' --include='*.sh' \
    || { echo "one-seam: the hardware cargo feature or the second executor is back"; exit 1; }
! grep -rnE '\b(if|match|while)\b.*(\bmode\(\)|rtm_active\(\)|hw_txn)|(\bmode\(\)|rtm_active\(\)|hw_txn) *[!=]=' crates/*/src \
        | grep -vE "$BACKENDS" \
    || { echo "one-seam: a branch on the mode outside the backend modules"; exit 1; }
dispatches="$(grep -rn 'backend()' crates/*/src | grep -vcE "$BACKENDS|^crates/euno-htm/src/runtime.rs:")"
[[ $dispatches == 11 ]] \
    || { echo "one-seam: $dispatches backend() dispatches in shared code, 11 listed"; grep -rn 'backend()' crates/*/src | grep -vE "$BACKENDS"; exit 1; }
echo "one-seam (no hardware feature, no second executor, no mode branch outside virt/tl2/rtm; 11 entry-point dispatches) OK"

# Metrics smoke: a tiny Figure 14 run (rotating-hotspot timeline) must
# quantify an adaptation lag for at least one programmed shift and emit a
# report with its timeseries sections (validated as it is written).  The
# counting-allocator harness that holds the sampling hot path
# allocation-free (the "always-on, low-overhead" contract of DESIGN.md
# §14, euno-metrics' zero_alloc_sample) ran under the tier-1 `cargo test`
# above.
EUNO_BENCH_SCALE=0.1 figures fig14_timeline --out "$SMOKE" >"$SMOKE/fig14.out"
grep -qE "answered [1-9]+/" "$SMOKE/fig14.out" \
    || { echo "smoke-metrics: no adaptation lag quantified"; exit 1; }
echo "smoke-metrics (fig14 timeline + schema v3; zero-alloc sampler ran in tier-1) OK"

# Zero-alloc: the engine's allocation gates, in --release as well — the
# benchmark's virtual preload is release code.  Steady-state episodes
# allocate nothing, with the window pruned behind the clock and at it
# (a lone-thread driver's regime, where every prune empties the
# window), and an ascending virtual preload stays within its budget
# of allocations a put (the nodes a split creates and the tables'
# growth; DESIGN.md §4.2 "Simulator wall cost").
cargo test -q --release -p euno-htm --test zero_alloc
cargo test -q --release -p euno-core --test zero_alloc_preload
echo "zero-alloc (episode hot path at two prune lags + preload budget, in --release) OK"

# Concurrent-correctness stage: real threads, recorded histories, the
# linearizability oracle, and structural audits over all four trees.
# Fixed seed for reproducibility; the wall-clock cap keeps the stage
# time-boxed (~5 s of traffic) on slow machines.  On violation the stress
# binary exits nonzero and prints the reproducing command line.
cargo run --release -q -p euno-check --bin stress -- \
    --threads 4 --ops 8000 --seed 20170204 --keys 512 --duration 5 \
    | tee "$SMOKE/stress.out"
both_euno_rows_clean "stress"
echo "stress + linearizability check OK (Euno-B+Tree = paper(), Euno-ReadOpt = default())"

# Abort-storm stress: the same oracle under the --storm schedule (8
# threads hammering 8 keys), the interleaving that drives the executor
# past its retry budgets and onto the fallback lock on real threads
# whenever the timing allows it.
cargo run --release -q -p euno-check --bin stress -- \
    --storm --ops 4000 --seed 20170204 --duration 5 \
    | tee "$SMOKE/stress.out"
both_euno_rows_clean "storm stress"
echo "storm stress + linearizability check OK (Euno-B+Tree = paper(), Euno-ReadOpt = default())"

# Read-path smoke: the --churn schedule (delete-heavy mix with the
# maintenance thread merging and retiring leaves under live readers)
# over both Euno configurations — paper() and default() — judged by the
# linearizability oracle: the schedule that exercises epoch reclamation
# against the hand-over from the upper stage (HTM region or validated
# walk) to the lower region and against the episode-free leaf read.  Then
# a tiny read-mostly YCSB cell (workload B, 95 % gets) confirming both
# rows — Euno-B+Tree (paper()) and Euno-ReadOpt (default()) — are wired
# through the bench surface.
stress_both_euno --churn --ops 3000 --seed 20170204 --duration 5
EUNO_BENCH_SCALE=0.05 figures ycsb_suite --threads 8 --out "$SMOKE" >"$SMOKE/ycsb.out"
grep -q "Euno-ReadOpt" "$SMOKE/ycsb.out" && grep -q "Euno-B+Tree" "$SMOKE/ycsb.out" \
    || { echo "read-path smoke: Euno-B+Tree / Euno-ReadOpt row missing"; exit 1; }
echo "smoke-readpath (churn stress + read-mostly bench) OK"

# Phased-churn stress: a grow/shrink schedule — split bursts then merge
# bursts while the other phase's readers are still in flight, judged by
# the same oracle.
stress_both_euno --churn-phased --ops 3000 --seed 20170204 --duration 5
echo "phased-churn stress + linearizability check OK"

# Contention splits: leaf size follows contention under default() — a
# protected leaf that keeps conflicting splits down to a record a line
# (none while the thread scanned lately, none under paper()), and the
# sweep merges no protected leaf.  The virtual-clock test checks the split
# leaves, the scan veto and the model; the --hot stress preset (8 threads
# on 16 adjacent keys, no scans) then runs the split and the join rule on
# real threads, with the maintenance thread sweeping, under the oracle.
cargo test -q --release -p euno-core --test contention_split
stress_both_euno --hot --seed 20261018 --duration 5
echo "contention-splits (virtual-clock split test + hot-range stress) OK"

# Bounded-maintenance: the deferred re-balance sweep must stay sliced.
# The integration test runs 16 logical threads on the virtual clock with
# the delete threshold lowered and fails if any single op exceeds 100 000
# cycles (an inline full sweep costs millions) or an armed sweep does not
# reach idle on foreground deletes alone; run in --release too, where
# debug assertions no longer hide a missing pin.  The --churn-sweeps
# stress preset then puts the same foreground slices on real threads,
# racing the maintenance thread's full passes and live readers, under the
# linearizability oracle.
cargo test -q --release -p euno-core --test bounded_maintenance
stress_both_euno --churn-sweeps --ops 3000 --seed 20170204 --duration 5
echo "bounded-maintenance (sliced sweep bound + churn-sweeps stress) OK"

# Scan ladder: the range scan's two rungs (DESIGN.md §4.7).  The
# livelock regression (a scan across > 64 record-less leaves, on a helper
# thread with a timeout, both configs) and the virtual-scheduler run of 15
# writers on one leaf against one scanner (exact output, bounded cycles,
# the locked rung actually reached) in --release, then the churn preset
# with long scans on real threads — where the global TL2 clock, not a
# window overlap, is what fails an optimistic step — under the
# linearizability oracle.  layout_independence rides along: the same seed
# on two differently populated heaps must charge every op the same cycles
# (a fresh leaf must not inherit a freed one's simulated line heat).
# scan_tail holds the scans' p99 still (≤ +1 %) while every operation
# beside them gets 80 cycles faster, and `scan::` puts scanners on real
# threads under splits, reorganizations and tombstones that come back —
# a step validates a segment at a time (§4.7).  (What lands *between* two
# sections — `upper_walk`'s scan tests and their mutation twin — needs the
# debug-only probes and ran under `cargo test` above.)
cargo test -q --release -p euno-core --test scan_ladder --test layout_independence --test scan_tail
cargo test -q --release -p euno-core --lib scan::
stress_both_euno --churn --scan-len 48 --ops 3000 --seed 20260929 --duration 5
echo "scan-ladder (livelock regression + hot-leaf scheduler run + layout independence + scan tail + real-thread scanners + churn stress) OK"

# Upper walk: every operation's upper stage (DESIGN.md §4.4).  In
# --release: a get must finish under writers that never touch its leaf
# (STM backend, where the walk and the leaf read validate against the
# *global* clock; helper thread with a timeout), and the virtual-scheduler
# run of 15 writers and one getter on one leaf (every get equals the
# model, longest get under its stated bound — unbounded retries read
# several times that).  The hand-over tests in the same file — a split, a
# reorganization, and a merge with retirement landing between `locate`
# and the lower region — need the debug-only probes and ran under
# `cargo test` above, as did the two placement mutation twins (a leaf
# search that never follows a spill, the old round-robin deal under the
# new search: each must fail the model comparison and the audit); their
# unmutated half — every record where its one-segment search ends, after
# spills, splits, merges and reorganizations — runs here, and every
# `stress` row's "invariants: clean" is the same audit on real threads.
# tl2_stm rides along in --release: the engine's
# disjoint-key scaling (> 1.15x at 4 threads; skipped on smaller hosts)
# is the floor the walk's global-clock check sits on.
cargo test -q --release -p euno-core --test upper_walk
cargo test -q --release -p euno-htm --test tl2_stm
echo "upper-walk (bounded gets + placement + tl2_stm in --release) OK"

# Adaptive: guideline 4 end to end (DESIGN.md §4.8), in --release.  A
# sequentially preloaded tree must be bypassed, a split must hand its
# verdict to both halves, a calm put must issue no read-modify-write
# outside its region (exact `cas_ops`), sixteen logical threads on one
# leaf must protect that leaf and leave the rest of the tree bypassed
# (virtual scheduler, every get equal to the model), and puts racing one
# mark bit without a lock bit must lose no key (STM backend).  Then the
# figure shape it exists for: at θ = 0.2 `+Adaptive` is no slower than
# `+CCM markbits` and within 2 % of `+Part Leaf`.
cargo test -q --release -p euno-core --test adaptive
cargo test -q --release -p eunomia --test figure_shapes adaptive_recovers_the_ccm_cost_at_low_skew
echo "adaptive (bypass, inheritance, RMW count, hot-leaf scheduler run, mark race + fig13 low-skew shape) OK"

# Leaf hints: the first rung of `locate` under `default()` (DESIGN.md
# §4.4), in --release, where a missing pin or generation check is not
# hidden by a debug assertion: a hint whose leaf split, reorganized or
# merged (both sides) is turned away for get/put/delete/scan, a re-issued
# address at the same `seqno` does not revive one, a hint serves exactly
# its `[low, high)`, two trees on one thread never serve each other, and
# fifteen logical threads on one splitting leaf stay exact, bounded and
# ≥ 50 % hits.  (The mutation half of the ABA test and `upper_walk`'s
# hand-over tests — where a get that finds `seqno` moved must open no
# episode — need the debug-only probes and ran under `cargo test` above,
# as did the one-section get's interleavings: a split, a reorganization,
# a merge on either side and an overwrite landing between a walk's `seqno`
# and the leaf read inside its section, on the virtual clock and on STM,
# with their mutation twin.)  In --release, that get on STM threads
# against a writer splitting, reorganizing and merging leaves, every
# answer exact.  Then merges,
# retirements and foreground sweep slices against live hints on real
# threads: the stress binary reports a finding — so the row is not clean —
# unless `Euno-ReadOpt` took hint hits and `Euno-B+Tree` took none.
cargo test -q --release -p euno-core --test leaf_hints
cargo test -q --release -p euno-core --test upper_walk gets_answered_inside_a_walk
stress_both_euno --churn-sweeps --ops 3000 --seed 20261004 --duration 5
echo "leaf-hints (stale/ABA/range/two-tree/scheduler tests + one-section gets under churn in --release + churn-sweeps stress with hit assertions) OK"

# Subtree hints: the second rung of `locate` under `default()` (DESIGN.md
# §4.4), in --release: a remembered index node that has split, whose root
# has grown, whose narrowing separator a merge has dropped, or whose
# rightmost leaf holds the key, costs one more walk and never a wrong
# leaf; an ascending load files no hint that comes back unusable; two
# trees on one thread never serve each other; `paper()` probes and files
# nothing.  (The mutation twin of the split test — the narrowing rule
# switched off must lose a key — needs the debug-only probes and ran under
# `cargo test` above, as did the hinted-`locate`-equals-root-walk truth
# table in `traverse.rs`.)  `locate_cost` holds every rung, and the get
# and put behind it, to exact cycle counts.  Then real threads on a tree
# wide enough to have subtrees — the default 512-key rows hold one
# 1 024-key block and never leave the root — plain and with foreground
# sweeps merging leaves under live hints: `stress` reports a finding
# unless `Euno-ReadOpt` took subtree hits and `Euno-B+Tree` none, and
# feeds its `IndexWatch` at every quiescent point, which fails the row if
# an index node ever leaves the tree or changes its lower bound.
cargo test -q --release -p euno-core --test subtree_hints --test locate_cost
stress_both_euno --keys 262144 --threads 4 --ops 20000 --seed 20261005 --duration 5
stress_both_euno --churn-sweeps --keys 262144 --threads 4 --ops 20000 --seed 20261005 --duration 5
echo "subtree-hints (split/root-growth/merge/rightmost-leaf/ascending/two-tree tests + cost equalities in --release + wide stress rows with hit assertions and the index watch) OK"

# Repo benchmark: `benchmark/` is its own workspace, so nothing above
# compiles it against the crate APIs it calls from outside
# (`htm_execute`, `RetryPolicy`, `ctx.stats`, `ctx.metric`, tree
# constructors).  Build it and run all six workloads shrunk to 1 s, twice
# on one build: the A/A pass holds the virtual-clock workloads to the
# BENCHMARK.json bounds.  The output is kept and printed on a failure.
bash benchmark/run.sh --smoke --aa >"$SMOKE/benchmark.out" 2>&1 \
    || { cat "$SMOKE/benchmark.out"; echo "benchmark smoke + A/A failed"; exit 1; }
echo "benchmark smoke + A/A OK"

# Mem-ceiling: the churn workload under an address-space limit, so
# retention that grows with run length (a registry that keeps superseded
# copies, an arena that never frees) fails here instead of waiting for a
# reader of /proc.  `ulimit -v` bounds VmPeak, not RSS.  Measured VmPeak
# of the benchmark child at this seed and length: 136 MiB with the node
# table (1.9x headroom under the ceiling), 414 MiB with the clone-on-read
# registries it replaced (killed: "memory allocation of … bytes failed").
# The build above left cargo nothing to compile, so the limit holds for
# the no-op cargo invocation in run.sh too.
MEM_CEILING_KB=262144
( ulimit -v "$MEM_CEILING_KB"
  bash benchmark/run.sh --workload virt-scan-churn --seed 3 --seconds 10 --trace 0 \
      >"$SMOKE/mem-ceiling.out" 2>&1 ) \
    || { cat "$SMOKE/mem-ceiling.out"; echo "mem-ceiling failed"; exit 1; }
echo "mem-ceiling (virt-scan-churn under ${MEM_CEILING_KB} kB of address space) OK"

# Recorded results: every virtual-clock CSV must regenerate byte for byte,
# all twelve figures in one process.  About 25 minutes at the recorded
# scale, so only on request.
if [[ $FULL == 1 ]]; then
    EUNO_BENCH_SCALE=0.3 figures --check
    echo "results/ regenerate byte-identically OK"
fi
