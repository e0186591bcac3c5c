#!/usr/bin/env bash
# Non-test Rust lines per tracked group: for each file, the lines before
# its first unindented `#[cfg(test)]`, normally the `mod tests` (the
# whole file when it has none).
#
#   scripts/loc.sh        # run from anywhere inside the repository
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Sum of non-test lines over the given files; missing files count 0.
count() {
    local files=()
    for f in "$@"; do
        [ -f "$f" ] && files+=("$f")
    done
    [ ${#files[@]} -eq 0 ] && { echo 0; return; }
    awk 'FNR == 1 { skip = 0 }
         /^#\[cfg\(test\)\]/ { skip = 1 }
         !skip { n++ }
         END { print n + 0 }' "${files[@]}"
}

core=crates/core/src
storage=crates/storage/src
printf '%-6s %6s\n' group lines
printf '%-6s %6d\n' vc "$(count $core/vc.rs $core/vcqueue.rs crates/dist/src/vc.rs)"
printf '%-6s %6d\n' obs "$(count $core/obs/*.rs $core/metrics.rs)"
printf '%-6s %6d\n' cc "$(count crates/cc/src/*.rs)"
printf '%-6s %6d\n' store "$(count $storage/chain.rs $storage/store.rs $storage/gc.rs)"
printf '%-6s %6d\n' log "$(count $storage/wal.rs $storage/persist.rs $core/durability.rs)"
mapfile -t all < <(find crates/*/src src -name '*.rs' | sort)
printf '%-6s %6d\n' total "$(count "${all[@]}")"
