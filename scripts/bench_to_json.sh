#!/bin/sh
# bench_to_json.sh <bench.txt>
#
# Converts `go test -bench` output into a flat JSON object mapping
# benchmark name (GOMAXPROCS suffix stripped) to ns/op. A name that
# occurs twice (two packages sharing a benchmark name, or -count > 1)
# is an error: the gate could not tell which figure it reads.
set -eu
awk '
BEGIN { printf "{" ; sep = "" }
/^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (name in seen) {
        printf "bench_to_json: duplicate benchmark name %s\n", name > "/dev/stderr"
        dup = 1
        exit 1
    }
    seen[name] = 1
    printf "%s\n  \"%s\": %s", sep, name, $3
    sep = ","
}
END {
    if (dup) exit 1
    printf "\n}\n"
}
' "$1"
