#!/usr/bin/env bash
# A/B evidence for a performance claim: the repository benchmark on <rev>
# and on HEAD as alternating pairs on this host.
#
#   bash ci/ab.sh <rev> <workload> [pairs=10]
#
# Both commits are exported (git archive) into a scratch directory, so each
# side builds and runs the benchmark/ of its own checkout and nothing in
# this working tree is touched. Every run is the driver's form,
#   bash benchmark/run.sh -workload W -seed 1 -seconds 10 -trace 0
# and odd pairs run <rev> first, even pairs HEAD first. Per end-to-end
# metric of BENCHMARK.json the report gives the two medians, the distance
# between the quartiles of <rev>'s own runs, and in how many pairs HEAD read
# better (ties count for neither), then every run's value. A metric whose
# HEAD median is worse than <rev>'s by more than its "bound" in
# BENCHMARK.json is flagged OVER BOUND, and the two sides' shares of failed
# ops are printed side by side: a breach or a larger failed share is what
# rejects a change. Claim a gain only when HEAD wins at least nine tenths
# of the pairs and the medians differ by more than that spread.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <rev> <workload> [pairs=10]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=${3:-10}
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --short "$rev^{commit}")
change=$(git -C "$root" rev-parse --short HEAD)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # run <side> <seconds>: the driver's JSON line, the last of stdout
  bash "$tmp/$1/benchmark/run.sh" -workload "$workload" -seed 1 -seconds "$2" -trace 0 | tail -n 1
}
for side in parent change; do
  mkdir "$tmp/$side"
  git -C "$root" archive "${!side}" | tar -x -C "$tmp/$side"
  run "$side" 1 > /dev/null # build, and one discarded short run
done
for i in $(seq 1 "$pairs"); do
  order="parent change"
  [ $((i % 2)) -eq 0 ] && order="change parent"
  for side in $order; do
    echo "pair $i/$pairs: $side" >&2
    run "$side" 10 >> "$tmp/$side.jsonl"
  done
done

python3 - "$root/BENCHMARK.json" "$tmp" "$workload" "$rev ($parent)" "HEAD ($change)" <<'EOF'
import json, statistics, sys
spec, tmp, workload, parent, change = sys.argv[1:]
runs = {s: [json.loads(l) for l in open("%s/%s.jsonl" % (tmp, s))] for s in ("parent", "change")}
print("%s: %d pairs, parent = %s, change = %s" % (workload, len(runs["parent"]), parent, change))
failed = {s: (sum(r["failed"] for r in runs[s]), sum(r["attempted"] for r in runs[s])) for s in runs}
share = {s: f / a if a else 0.0 for s, (f, a) in failed.items()}
print("failed ops: parent %d of %d (%.4g%%), change %d of %d (%.4g%%)%s" % (
    *failed["parent"], 100 * share["parent"], *failed["change"], 100 * share["change"],
    "  MORE FAILED" if share["change"] > share["parent"] else ""))
print("%-18s %14s %14s %8s %12s %s" % ("metric", "parent median", "change median", "change", "parent IQR", "change wins"))
for m in json.load(open(spec))["end_to_end"]:
    a, b = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in ("parent", "change"))
    q = statistics.quantiles(a, n=4, method="inclusive")
    ma, mb = statistics.median(a), statistics.median(b)
    better = (lambda x, y: y > x) if m["better"] == "higher" else (lambda x, y: y < x)
    wins = sum(better(x, y) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    delta = "%+.1f%%" % (100 * (mb - ma) / ma) if ma else "n/a"
    worse = better(mb, ma)
    over = worse and (ma == 0 or abs(mb - ma) / abs(ma) > m["bound"])
    print("%-18s %14.6g %14.6g %8s %12.4g %d/%d%s  (%s %s is better)%s" % (
        m["name"], ma, mb, delta, q[2] - q[0], wins, len(a), ", %d tied" % ties if ties else "", m["better"], m["unit"],
        "  OVER BOUND (%g)" % m["bound"] if over else ""))
    print("    parent %s\n    change %s" % (" ".join("%.6g" % x for x in a), " ".join("%.6g" % x for x in b)))
EOF
