#!/bin/sh
# Non-test lines of code per crate, the one definition behind ROADMAP item 4's
# "non-test LoC down" gate: for every .rs file under a crate's src/, the lines
# before its first `#[cfg(test)]` (the whole file when it has none), summed.
set -eu
cd "$(dirname "$0")/.."
for pair in loc_core:crates/core/src loc_server:crates/server/src loc_bench:crates/bench/src \
    loc_quorum:crates/quorum/src; do
    name=${pair%%:*}
    dir=${pair#*:}
    find "$dir" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk -v name="$name" '{ total += $1 } END { print name, total + 0 }'
done
