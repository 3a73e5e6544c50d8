#!/usr/bin/env bash
# Full local gate: everything CI would run, in the order that fails fastest
# after a refactor. Run from the repo root (or anywhere inside it).
set -euo pipefail
cd "$(dirname "$0")/.."

# One path per seam: a twin that was proven equivalent and deleted, a
# retired knob, or a retired second harness stays deleted in shipping code
# (test modules may name their oracles after it). The wake rule of every
# deadline timer lives in `wow_netsim::time::Alarm`, so a hand-copied
# armed-deadline field (`armed_stack_tick`) or a caller comparing a
# driver's armed deadline itself (`.armed()`) stays gone.
echo "==> no retired twin in shipping code"
if find crates/*/src examples benchmark/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' {} + | grep -E 'legacy_bootstrap|set_batching|tick_due|next_hop_scan|peer_by_remote_scan|Backend::Thread|UdpNode::spawn|transit_fast_path:|WOW_SIM_WORKERS|ChurnBenchConfig|LiveConfig|armed_stack_tick|\.armed\(\)'; then exit 1; fi
# A received datagram is the node's to keep: live ingress hands out
# right-sized frames, so no receive-buffer hand-back seam (`reclaim`)
# returns to the overlay kernel.
if find crates/overlay/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' {} + | grep -E 'fn reclaim|\.reclaim\('; then exit 1; fi
# One measurement system: speed is measured by the benchmark of record
# (benchmark/, wow-perf), so no workspace manifest declares a bench target
# or a criterion dependency and the vendored criterion stand-in stays gone.
if grep -nE '^\[\[bench\]\]|^\s*criterion\s*[.=]|^\[[a-z-]*dependencies\.criterion\]' Cargo.toml crates/*/Cargo.toml tests/Cargo.toml; then exit 1; fi
if [ -e vendor/criterion ]; then echo "vendor/criterion is back"; exit 1; fi

# Per-node state sized by use: every per-peer map of the protocol kernel
# is the ordered table in crates/overlay/src/table.rs (sorted keys, no
# buffer once emptied), so a node's state iterates in address order by
# construction and no hasher's per-process seed can reach its output.
echo "==> no HashMap or HashSet in shipping crates/overlay/src"
if find crates/overlay/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' {} + | grep -E 'HashMap|HashSet'; then exit 1; fi

# One simulated-overlay harness: churn, scale, the join storm and compound
# chaos build their worlds, snapshot the live nodes and wait for repair
# through crates/wow/src/harness.rs. A private ring seeder or audit loop
# elsewhere is a fifth copy coming back.
echo "==> audit_ring( and seed_connection( only in their homes"
shipping() { find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' {} +; }
if shipping | grep -F 'audit_ring(' | grep -vE '^crates/wow/src/(audit|harness)\.rs:'; then exit 1; fi
if shipping | grep -F 'seed_connection(' | grep -vE '^crates/(overlay/src/node|wow/src/harness)\.rs:'; then exit 1; fi

# One egress path: a live flush carries about one frame, so every frame is
# one std send_to and the vectored egress FFI (sendmmsg, UDP_SEGMENT GSO)
# stays deleted. Only crates/*/src is scanned: the frozen benchmark's
# workload descriptions still name sendmmsg.
echo "==> no vectored egress in shipping code"
if shipping | grep -E 'sendmmsg|UDP_SEGMENT|transmit_frames|send_gso'; then exit 1; fi

# One rule set per host: parallel lanes reach host columns only through the
# host handle, so the simulator keeps exactly four `unsafe` sites (DESIGN.md
# "Parallel event core" lists them). A fifth is a design change, not a
# drive-by.
echo "==> at most 4 unsafe sites in crates/netsim/src"
sites=$(grep -rhw unsafe crates/netsim/src | grep -cvE '^\s*//' || true)
if [ "$sites" -gt 4 ]; then
    echo "crates/netsim/src has $sites unsafe sites (max 4):"
    grep -rnw unsafe crates/netsim/src | grep -vE ':\s*//'
    exit 1
fi

# One home for foreign calls: every unsafe site of the live runtime (epoll
# and recvmmsg ingress) sits in crates/wow/src/os.rs, so the shard core
# and the rest of the crate stay safe code that Miri can run. An unsafe
# site elsewhere, or a ninth one there, is a design change.
echo "==> unsafe in crates/wow/src only in os.rs, at most 8 sites"
if grep -rnw unsafe crates/wow/src | grep -vE '^[^:]+:[0-9]+:\s*//' | grep -v '^crates/wow/src/os\.rs:'; then exit 1; fi
sites=$(grep -hw unsafe crates/wow/src/os.rs | grep -cvE '^\s*//' || true)
if [ "$sites" -gt 8 ]; then
    echo "crates/wow/src/os.rs has $sites unsafe sites (max 8):"
    grep -nw unsafe crates/wow/src/os.rs | grep -vE ':\s*//'
    exit 1
fi

# One home per protocol decision: node.rs is dispatch glue over the
# protocol parts (DESIGN.md "Crate inventory"), capped at the non-test
# lines it had when the CTM, link and join parts moved out. Regrowing the
# glue is a design change, not a drive-by.
echo "==> at most 743 non-test lines in crates/overlay/src/node.rs"
glue=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' crates/overlay/src/node.rs)
if [ "$glue" -gt 743 ]; then
    echo "crates/overlay/src/node.rs has $glue non-test lines (max 743)"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark of record is a workspace of its own that path-depends on
# crates/ and is frozen between benchmark changes: a crates/ change that
# breaks its build, its lints or its same-seed digests should fail here,
# not in the benchmark pipeline.
echo "==> benchmark/check.sh"
./benchmark/check.sh

echo "All checks passed."
