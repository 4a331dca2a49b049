#!/bin/sh
# Public-surface audit: prints every `pub fn` under crates/*/src (bins
# excluded) that no other file in crates/, tests/, examples/, src/ or
# benchmark/src names, and exits 1 if it finds one. A re-export
# (`pub use ...;`) is not a use. Run it from the repository root:
#
#   scripts/pub-audit.sh
#
# A caller-less function is deleted, made private, or kept here with
# the reason it stays public. After that check it also lists, for
# information only, the `pub fn`s that only benchmark/src calls from
# outside their own file: the pins the frozen benchmark holds in place.
set -eu

KEEP='
epoll_create1      an FFI declaration of the libc call, not a Rust function
transition_status  the read half of the pull window, named by ROADMAP item 10
scrape_stats       read by the MetricsServer scrape-cap tests in its own file
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Search a copy of the sources with every `pub use` statement blanked.
find crates tests examples src benchmark/src -name '*.rs' | while read -r f; do
    mkdir -p "$tmp/${f%/*}"
    perl -0pe 's/\bpub use [^;]*;//g' "$f" >"$tmp/$f"
done
cd "$tmp"

found=0
pins=
for f in $(find crates/*/src -name '*.rs' ! -path '*/src/bin/*' | sort); do
    for name in $(sed -n 's/^ *pub \(const \|unsafe \)\{0,1\}fn \([A-Za-z0-9_]*\).*/\2/p' "$f" | sort -u); do
        if echo "$KEEP" | grep -q "^$name "; then
            continue
        fi
        callers=$(grep -rlw "$name" crates tests examples src benchmark/src | grep -vxF "$f" || true)
        if [ -z "$callers" ]; then
            echo "$f: $name"
            found=1
        elif ! echo "$callers" | grep -qv '^benchmark/src/'; then
            pins="$pins$f: $name
"
        fi
    done
done
# Information only: the functions whose only callers outside their own
# file are in benchmark/src. They stay public for as long as the frozen
# benchmark names them.
if [ -n "$pins" ]; then
    echo "called only from benchmark/src:"
    printf '%s' "$pins"
fi
exit $found
