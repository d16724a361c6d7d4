#!/usr/bin/env bash
# The benchmark's command: build igbench from source, then run one workload.
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Everything it writes stays under
# $CARGO_TARGET_DIR (default benchmark/target), benchmark/Cargo.lock and benchmark/out.
#
# The manifest names the published crates. Where no registry answers (or that
# build fails), the build is repeated offline with shims/offline.toml, which
# patches them to the stand-ins in shims/. The choice is kept beside the build
# for the next run, and igbench prints it in its header: numbers from the two
# kinds of build are not comparable.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
chosen="$CARGO_TARGET_DIR/igbench-deps"

build() {
    case "$1" in
        registry)
            CARGO_NET_RETRY=1 CARGO_HTTP_TIMEOUT=15 \
                cargo build --release --quiet --manifest-path "$here/Cargo.toml" --bin igbench ;;
        shims)
            cargo build --release --quiet --offline --config "$here/shims/offline.toml" \
                --manifest-path "$here/Cargo.toml" --bin igbench ;;
    esac
}

deps="$(cat "$chosen" 2>/dev/null || true)"
if [ -n "$deps" ]; then
    build "$deps" >&2
elif build registry >/dev/null 2>&1; then
    deps=registry
else
    rm -f "$here/Cargo.lock"
    build shims >&2
    deps=shims
fi
echo "$deps" >"$chosen"
IGBENCH_DEPS="$deps" exec "$CARGO_TARGET_DIR/release/igbench" run "$@"
