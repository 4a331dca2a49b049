#!/bin/sh
# Public-surface audit: asks the compiler which `pub fn`, `pub const` and
# `pub static` under crates/*/src (bins excluded) nothing outside its own
# crate uses, prints each one, and exits 1 if it finds one. Run it from
# the repository root:
#
#   scripts/pub-audit.sh
#
# It works on a copy of the sources in a temporary directory and leaves
# the tree as it found it. There it makes every such item
# `pub(crate)`, checks the workspace (`cargo check --workspace
# --all-targets --keep-going`, so integration tests, examples, bins and
# the facade crate are callers), and makes public again each item a
# privacy error names: by the definition span in the error or its notes,
# or, for a free item whose `pub use` re-export breaks, by its name in
# that crate. It repeats until no privacy error is left, since a crate
# that fails to build hides the calls of the crates built on it. Then
# rustc's `dead_code` lint names the items that only their own crate's
# unit tests use, or nothing at all. A doc example is not a caller. A
# `len` and the `is_empty` of the same type count as one function: an
# `is_empty` is not reported while its `len` has a caller, since
# clippy's `len_without_is_empty` wants the pair.
#
# A caller-less item is deleted, made private, or kept here with the
# reason it stays public. The audit then checks benchmark/ the same way
# and lists, for information only, the items that only benchmark/src
# uses from outside their crate: the pins the frozen benchmark holds in
# place (ROADMAP item 20).
#
# Every run checks the workspace from scratch in the temporary directory:
# about 1.5 minutes on two cores.
set -eu

KEEP='
scrape_stats       read by the MetricsServer scrape-cap tests in its own file
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tar -cf - Cargo.toml Cargo.lock crates stubs src tests examples \
    benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src | tar -xf - -C "$tmp"
cd "$tmp"
export CARGO_TARGET_DIR="$tmp/target" RUSTFLAGS='--force-warn=dead_code' CARGO_TERM_COLOR=never

# Make every audited function, constant and static `pub(crate)` and list
# it in `sites`, one line each: file, line, name and the type of its
# `impl` block (`-` for a free item). A `const fn` is a function.
keep_names=$(echo "$KEEP" | awk 'NF { print $1 }')
for f in $(find crates/*/src -name '*.rs' ! -path '*/src/bin/*' | sort); do
    KEEP_NAMES="$keep_names" FILE="$f" perl -i -ne '
        BEGIN { %keep = map { $_ => 1 } split " ", $ENV{KEEP_NAMES} }
        if ((/^(\s*)pub ((?:const |unsafe |async )*fn (\w+))/
                || /^(\s*)pub ((?:const|static(?: mut)?) (\w+)\s*:)/) && !$keep{$3}) {
            my ($indent, $name, $owner) = (length $1, $3, "-");
            # The enclosing block is the nearest line above indented less.
            for my $l (reverse @seen) {
                next if $l !~ /\S/ || $l =~ /^(\s*)/ && length $1 >= $indent;
                next if $l =~ /^\s*(\{|where\b)/;
                $owner = $1 if $l =~ /^\s*impl\b(?:<.*?>)?\s+([\w:]+)/;
                last;
            }
            print STDERR "$ENV{FILE}\t$.\t$name\t$owner\n";
            s/\bpub /pub(crate) /;
        }
        push @seen, $_;
        print;
    ' "$f" 2>>sites
done

# Checks one package set and writes its compiler messages to $2; prints
# `file<TAB>line<TAB>line_end<TAB>name` for every span of a privacy error
# (E0603, E0624), `file<TAB>use<TAB>-<TAB>name` for a broken re-export
# (E0364, E0365), and `-<TAB>any<TAB>-<TAB>name` for any other error, by
# the name under its span: a method call that, with the method private,
# resolved to another one (a deref target's unstable `as_slice`, say).
check() {
    cargo check --offline --all-targets --keep-going --message-format=json $1 \
        >"$2" 2>/dev/null || true
    jq -r --arg base "$3" 'select(.reason == "compiler-message") | .message
        | select(.level == "error" and .code != null)
        | def path: (if startswith("/") then "" else $base end) + .;
          if (.code.code | test("E0603|E0624")) then
              (.message | capture("`(?<n>[A-Za-z0-9_]+)`").n) as $name
              | (.spans[], .children[].spans[])
              | [(.file_name | path), .line_start, .line_end, $name]
          elif (.code.code | test("E0364|E0365")) then
              (.message | capture("`(?<n>[A-Za-z0-9_]+)`").n) as $name
              | .spans[] | [(.file_name | path), "use", "-", $name]
          else
              .spans[] | select(.is_primary) | .text[0]
              | ["-", "any", "-", .text[.highlight_start - 1:.highlight_end - 1]]
          end
        | @tsv' "$2"
}

# Makes public again every site the lines on stdin name, appends them to
# $1, and fails if there were none.
restore() {
    while IFS='	' read -r file line end name; do
        file=$(realpath -m --relative-to="$tmp" "$file")
        if [ "$line" = any ]; then
            awk -F'\t' -v n="$name" '$3 == n' sites
        elif [ "$line" = use ]; then
            crate=${file%%/src/*}
            awk -F'\t' -v c="$crate/src/" -v n="$name" \
                'index($1, c) == 1 && $3 == n && $4 == "-"' sites
        else
            awk -F'\t' -v f="$file" -v a="$line" -v b="$end" -v n="$name" \
                '$1 == f && $2 >= a && $2 <= b && $3 == n' sites
        fi
    done | sort -u >named
    [ -s named ] || return 1
    cut -f1 named | sort -u | while read -r file; do
        LINES=$(awk -F'\t' -v f="$file" '$1 == f { print $2 }' named) perl -i -pe '
            BEGIN { %at = map { $_ => 1 } split " ", $ENV{LINES} }
            s/\bpub\(crate\) /pub / if $at{$.};
        ' "$file"
    done
    cat named >>"$1"
    grep -vxFf named sites >sites.next || true
    mv sites.next sites
}

# The workspace first: what is restored here has a caller outside its
# crate. Then benchmark/ as well: what is restored then has callers only
# there.
: >pins
cp sites sites.all
while check --workspace ws.json "$tmp/" | restore /dev/null; do :; done
while { check --workspace ws.json "$tmp/"
        check "--manifest-path benchmark/Cargo.toml" bench.json "$tmp/benchmark/"; } |
    restore pins; do :; done

failed=$(jq -r 'select(.reason == "compiler-message") | .message
    | select(.level == "error") | .rendered' ws.json bench.json)
if [ -n "$failed" ]; then
    echo "$failed"
    echo "pub-audit: the sources do not build without a privacy error" >&2
    exit 2
fi

# What dead_code names among the sites still `pub(crate)`.
jq -r 'select(.reason == "compiler-message") | .message
    | select(.code.code == "dead_code") | .spans[] | select(.is_primary)
    | [.file_name, .line_start] | @tsv' ws.json >dead_lines
awk -F'\t' 'NR == FNR { dead[$1 "\t" $2] = 1; next } ($1 "\t" $2) in dead' \
    dead_lines sites >dead
found=0
while IFS='	' read -r file line name owner; do
    if [ "$name" = is_empty ] &&
        grep -q "^$file	[0-9]*	len	$owner\$" sites.all &&
        ! grep -q "^$file	[0-9]*	len	$owner\$" dead; then
        continue
    fi
    [ "$owner" = - ] && owner= || owner="$owner::"
    echo "$file:$line: $owner$name"
    found=1
done <dead

# Information only: the items whose only users outside their crate
# are in benchmark/src. They stay public for as long as the frozen
# benchmark names them.
if [ -s pins ]; then
    echo "used only from benchmark/src:"
    sort -t'	' -k1,1 -k2,2n pins | while IFS='	' read -r file line name owner; do
        [ "$owner" = - ] && owner= || owner="$owner::"
        echo "$file:$line: $owner$name"
    done
fi
exit $found
