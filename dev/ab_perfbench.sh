#!/usr/bin/env bash
# A/B host-metric comparison of two commits on perfbench, built and run
# the same way every time.
#
#   dev/ab_perfbench.sh [options] BASE [CHANGE]
#
#   BASE, CHANGE  any git tree-ish; WORKTREE means the working tree as
#                 `git add -A` would stage it (the real index is left
#                 alone). CHANGE defaults to WORKTREE.
#   -n PAIRS      alternating pairs per workload (10)
#   -s SECONDS    seconds per run (BENCHMARK.json's run_seconds)
#   -w WORKLOADS  comma-separated workloads (array_polymul,wire_mixed,rns_polymul)
#   -S SEED       perfbench seed (7)
#   -d DIR        work directory (${TMPDIR:-/tmp}/bpntt-ab)
#   --aa          A/A: run BASE's binary against a second copy of itself
#                 and print the noise floor a host claim must clear
#
# Procedure:
#   1. `git archive` each commit into one fixed path (DIR/src) in turn
#      and build perfbench into a target dir per side. Release builds
#      embed the checkout path, so building both sides at one path keeps
#      code layout out of the comparison.
#   2. Build BASE a second time into a third target dir and stop unless
#      the two BASE binaries are byte-identical.
#   3. Run PAIRS pairs per workload, alternating which side goes first.
#   4. Per end-to-end metric print each side's median and quartiles, the
#      median of the per-pair ratios (CHANGE / BASE), the pairs CHANGE
#      won (by the metric's direction in BENCHMARK.json), and whether
#      the simulated metrics are identical across every run.
#
# Needs git, cargo (offline) and python3. Every run's last JSON line is
# kept under DIR/runs/.
set -euo pipefail

pairs=10
seconds=
workloads=array_polymul,wire_mixed,rns_polymul
seed=7
dir="${TMPDIR:-/tmp}/bpntt-ab"
aa=0
args=()
while (($#)); do
    case "$1" in
        -n) pairs="$2"; shift 2 ;;
        -s) seconds="$2"; shift 2 ;;
        -w) workloads="$2"; shift 2 ;;
        -S) seed="$2"; shift 2 ;;
        -d) dir="$2"; shift 2 ;;
        --aa) aa=1; shift ;;
        -h|--help) sed -n '2,32p' "$0"; exit 0 ;;
        *) args+=("$1"); shift ;;
    esac
done
((${#args[@]} >= 1 && ${#args[@]} <= 2)) || { sed -n '2,32p' "$0" >&2; exit 2; }
base="${args[0]}"
change="${args[1]:-WORKTREE}"

repo="$(git rev-parse --show-toplevel)"
mkdir -p "$dir/runs"
dir="$(cd "$dir" && pwd)"

# Resolves a tree-ish to a tree id; WORKTREE stages the working tree
# into a scratch index.
tree_of() {
    if [[ "$1" == WORKTREE ]]; then
        local index="$dir/worktree.index"
        cp "$(git -C "$repo" rev-parse --git-path index)" "$index"
        GIT_INDEX_FILE="$index" git -C "$repo" add -A
        GIT_INDEX_FILE="$index" git -C "$repo" write-tree
    else
        git -C "$repo" rev-parse "$1^{tree}"
    fi
}

# build TREE LABEL: archive TREE into DIR/src and build perfbench into
# DIR/target-LABEL; copies the binary to DIR/bin-LABEL.
build() {
    rm -rf "$dir/src"
    mkdir -p "$dir/src"
    git -C "$repo" archive "$1" | tar -x -C "$dir/src"
    echo "building $2 ($1) at $dir/src" >&2
    (cd "$dir/src" && CARGO_TARGET_DIR="$dir/target-$2" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
    cp "$dir/target-$2/release/bpntt-perfbench" "$dir/bin-$2"
}

base_tree="$(tree_of "$base")"
[[ -n "$seconds" ]] || seconds="$(git -C "$repo" show "$base_tree:BENCHMARK.json" |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["run_seconds"])')"

build "$base_tree" base
build "$base_tree" base-again
if ! cmp -s "$dir/bin-base" "$dir/bin-base-again"; then
    echo "STOP: two builds of $base at one path differ" \
        "($(stat -c %s "$dir/bin-base") vs $(stat -c %s "$dir/bin-base-again") bytes);" \
        "host metrics would compare code layouts, not code" >&2
    exit 1
fi
echo "base builds are byte-identical ($(stat -c %s "$dir/bin-base") bytes)" >&2
if ((aa)); then
    change_label="A/A: $base against itself"
    cp "$dir/bin-base" "$dir/bin-change"
else
    change_tree="$(tree_of "$change")"
    change_label="$change ($change_tree)"
    build "$change_tree" change
fi
git -C "$repo" show "$base_tree:BENCHMARK.json" > "$dir/BENCHMARK.json"

# run SIDE WORKLOAD PAIR: one untraced perfbench run; keeps its JSON line.
run() {
    local out="$dir/runs/$2-pair$3-$1.json"
    (cd "$dir" && "$dir/bin-$1" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) |
        tail -n 1 > "$out"
}

rm -f "$dir"/runs/*.json
IFS=, read -r -a wl <<< "$workloads"
for w in "${wl[@]}"; do
    for ((p = 0; p < pairs; p++)); do
        if ((p % 2 == 0)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do
            echo "$w pair $((p + 1))/$pairs: $side" >&2
            run "$side" "$w" "$p"
        done
    done
done

python3 - "$dir" "$pairs" "$seconds" "$seed" "$base" "$change_label" "${wl[@]}" <<'EOF'
import json, os, statistics, sys

dir, pairs, seconds, seed, base, change = sys.argv[1:7]
workloads, pairs = sys.argv[7:], int(pairs)
bench = json.load(open(os.path.join(dir, "BENCHMARK.json")))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
SIM = ("sim_cycles_per_poly", "sim_energy_nj_per_poly")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"available_parallelism {os.cpu_count()}  (os.sched_getaffinity: {len(os.sched_getaffinity(0))})")
print(f"base {base}; change {change}; seed {seed}; {pairs} pairs x {seconds} s")
for w in workloads:
    runs = {side: [] for side in ("base", "change")}
    for p in range(pairs):
        for side in runs:
            line = open(os.path.join(dir, "runs", f"{w}-pair{p}-{side}.json")).read()
            doc = json.loads(line)
            if not doc["correct"]:
                sys.exit(f"{w} pair {p + 1} {side}: perfbench reported correct=false")
            runs[side].append({k: v["value"] for k, v in doc["metrics"].items()})
    print(f"\n{w}")
    print(f"  {'metric':<24} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6}  bound")
    for name in better:
        b = [r[name] for r in runs["base"] if name in r]
        c = [r[name] for r in runs["change"] if name in r]
        if len(b) != pairs or len(c) != pairs:
            continue
        ratios = [y / x if x else float("nan") for x, y in zip(b, c)]
        up = better[name] == "higher"
        wins = sum((y > x) if up else (y < x) for x, y in zip(b, c))
        (bq1, bq3), (cq1, cq3) = quartiles(b), quartiles(c)
        fmt = lambda m, lo, hi: f"{m:.4g} [{lo:.4g}, {hi:.4g}]"
        line = (f"  {name:<24} {fmt(statistics.median(b), bq1, bq3):>32}"
                f" {fmt(statistics.median(c), cq1, cq3):>32}"
                f" {statistics.median(ratios):>7.4f} {wins:>3}/{pairs}  {bound[name]}")
        if name in SIM:
            same = len(set(b + c)) == 1
            line += "  identical" if same else "  DIFFERS"
        print(line)
EOF
