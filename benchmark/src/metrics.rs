//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics with the end-to-end metric and workload each should
//! move. `BENCHMARK.json` is generated from these tables (`wow-perf
//! manifest`) and a smoke test holds the two together.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ring-maintain",
        why: "6000-node simulated ring, sparse load: ~99% keepalive/stabilize/CTM/timer events, so the simulator core and the largest working set do the work and the app transit path almost none",
    },
    Workload {
        name: "ring-transit",
        why: "2000-node simulated ring, shortcuts off, dense traffic: the decode-free forwarding path, next_hop and driver batching do the work over a small footprint; maintenance is a few percent",
    },
    Workload {
        name: "join-storm",
        why: "4000 joiners flood a 64-node core: the write-heavy use of the layers ring-transit only reads (bootstrap, linking, CTMs, ConnTable upsert/trim, full frame decode)",
    },
    Workload {
        name: "live-ring",
        why: "256 nodes over real loopback UDP on one reactor shard, closed then open loop, shortcuts off: the only workload through epoll, recvmmsg/sendmmsg, the buffer pool and wall-clock timers",
    },
    Workload {
        name: "vnet-transfer",
        why: "the paper's Table II on the NAT'd testbed, ttcp over vnet TCP/IPOP with and without shortcuts: the only workload through NAT, router CPU queues, vnet TCP/IP and the workstation",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it means (end-to-end) or what it should move, where (layers).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        note,
    }
}

/// Every workload reports every one of these; none is ever zero.
pub const END_TO_END: [Metric; 7] = [
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "start of a repetition to start of its measured window: build, seed, warm-up or formation, audit (median over the run's repetitions)",
    ),
    e2e(
        "wall_s",
        "s",
        Better::Lower,
        0.25,
        "host wall time of the measured window for its fixed work (median over repetitions). This, not events/s, is the gate: removing cheap events must not read as a regression",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        Better::Lower,
        0.25,
        "VmHWM of the workload's process",
    ),
    e2e(
        "msgs_per_s",
        "1/s",
        Better::Higher,
        0.25,
        "application messages delivered exactly per host wall second of the window (tunnelled IP packets on vnet-transfer)",
    ),
    e2e(
        "delivery_p50_us",
        "us",
        Better::Lower,
        0.25,
        "median send-to-deliver latency in the world's own clock: wall us from the due time on live-ring's open loop, simulated us elsewhere (half the vnet ping round trip on vnet-transfer)",
    ),
    e2e(
        "hops_mean",
        "hops",
        Better::Lower,
        0.25,
        "mean overlay hops per exactly-delivered message (second half of the window on ring-maintain, after shortcuts form)",
    ),
    e2e(
        "delivered_share",
        "ratio",
        Better::Higher,
        0.001,
        "1 - failed/attempted: messages delivered exactly after the drain, joiners routable in the window, transfers completed; a failed audit makes it 0-ward",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

use Better::{Higher, Lower};

/// Layer = crate.module. Every workload reports every name; 0 means the
/// workload never touched that layer, which is itself the bypass check.
pub const PER_LAYER: [Metric; 63] = [
    layer("netsim.sim.events", "count", Lower, "denominator; events in the window (exact)"),
    layer("netsim.sim.datagrams_sent", "count", Lower, "denominator (exact)"),
    layer("netsim.sim.datagrams_delivered", "count", Lower, "denominator (exact)"),
    layer("netsim.sim.dropped", "count", Lower, "delivered_share (exact)"),
    layer("netsim.sim.events_per_s", "1/s", Higher, "wall_s on the four simulated workloads; the ROADMAP headline, kept visible"),
    layer("netsim.sim.ns_per_event", "ns", Lower, "wall_s on the four simulated workloads"),
    layer("netsim.sim.core_share", "ratio", Lower, "wall_s on ring-maintain: window minus actor spans, over window"),
    layer("wow.simrt.actor_ns_per_event", "ns", Lower, "wall_s on ring-transit and join-storm: actor span time per simulator event"),
    layer("netsim.wheel.ns_per_op", "ns", Lower, "wall_s on ring-maintain and join-storm; no move on ring-transit"),
    layer("netsim.nat.ns_per_translate", "ns", Lower, "wall_s on vnet-transfer only"),
    layer("netsim.nat.mappings", "count", Lower, "0 on the ring and join workloads: they bypass NAT"),
    layer("netsim.sim.cpu_queue_wait_us", "us", Lower, "goodput and hops_mean on vnet-transfer (simulated, exact)"),
    layer("netsim.sim.uplink_queue_wait_us", "us", Lower, "goodput on vnet-transfer (simulated, exact)"),
    layer("overlay.wire.decode_ns", "ns", Lower, "wall_s on ring-maintain and join-storm"),
    layer("overlay.wire.encode_ns", "ns", Lower, "wall_s on ring-maintain and join-storm"),
    layer("overlay.wire.frame_bytes_mean", "B", Lower, "decode/encode cost; uplink wait"),
    layer("overlay.wire.routed_app_share", "ratio", Lower, "share of received frames that are routed app frames: high on ring-transit, low on join-storm (link frames and CTMs are the rest)"),
    layer("overlay.wire.peek_patch_ns", "ns", Lower, "wall_s on ring-transit; msgs_per_s on live-ring"),
    layer("overlay.conn.next_hop_ns", "ns", Lower, "wall_s on ring-transit; msgs_per_s on live-ring"),
    layer("overlay.conn.conns_per_node_mean", "count", Lower, "peak_rss_mib; next_hop_ns"),
    layer("overlay.conn.conns_per_node_max", "count", Lower, "peak_rss_mib"),
    layer("overlay.conn.upsert_remove_ns", "ns", Lower, "wall_s on join-storm; must not be bought with next_hop_ns"),
    layer("overlay.node.transit_ns", "ns", Lower, "wall_s on ring-transit"),
    layer("overlay.node.control_ns", "ns", Lower, "wall_s on ring-maintain and join-storm"),
    layer("overlay.node.tick_ns", "ns", Lower, "wall_s on ring-maintain and join-storm"),
    layer("overlay.node.forwarded", "count", Lower, "hops_mean (exact)"),
    layer("overlay.node.fast_path_share", "ratio", Higher, "wall_s on ring-transit: transit forwards that skipped decode"),
    layer("overlay.node.transit_share", "ratio", Lower, "decode-free transit forwards of app frames over delivered datagrams: >=0.8 on ring-transit, <=0.15 on ring-maintain"),
    layer("overlay.node.ctm_sent", "count", Lower, "wall_s on join-storm (exact)"),
    layer("overlay.node.link_success_share", "ratio", Higher, "join quantiles and delivered_share on join-storm"),
    layer("overlay.node.introducer_fallbacks", "count", Lower, "join p99 on join-storm (exact)"),
    layer("overlay.driver.cycle_ns", "ns", Lower, "wall_s on ring-transit; msgs_per_s on live-ring"),
    layer("overlay.driver.frames_per_flush", "count", Higher, "msgs_per_s on live-ring: syscalls amortised per flush"),
    layer("overlay.node.bytes_per_node", "B", Lower, "peak_rss_mib on ring-maintain and join-storm"),
    layer("overlay.conn.bytes_per_conn", "B", Lower, "peak_rss_mib on ring-maintain and join-storm"),
    layer("alloc.allocs_per_event", "count", Lower, "wall_s on every simulated workload"),
    layer("wow.audit.ns_per_node", "ns", Lower, "setup_s; wall_s on join-storm (settle polls)"),
    layer("wow.join.p50_sim_s", "s", Lower, "join-storm: node start to first near link, simulated (exact)"),
    layer("wow.join.p99_sim_s", "s", Lower, "join-storm: the tail of the same (exact)"),
    layer("wow.join.in_window_share", "ratio", Higher, "delivered_share on join-storm"),
    layer("wow.reactor.form_s", "s", Lower, "setup_s on live-ring: first spawn to every node routable"),
    layer("wow.reactor.send_app_ns", "ns", Lower, "msgs_per_s on live-ring: generator-side cost of one send"),
    layer("wow.reactor.cpu_us_per_msg", "us", Lower, "msgs_per_s on live-ring: reactor thread CPU per delivered message"),
    layer("wow.reactor.delivery_p99_us", "us", Lower, "delivery_p50_us on live-ring; the tail lives here because it does not repeat within a tenth on a shared box"),
    layer("wow.reactor.gen_late_p99_us", "us", Lower, "validity of the open-loop latencies: how late the generator ran"),
    layer("wow.reactor.closed_rtt_p50_us", "us", Lower, "msgs_per_s on live-ring: closed-loop send to deliver"),
    layer("wow.udprt.flush_ns_per_frame_32", "ns", Lower, "msgs_per_s and delivery_p50_us on live-ring"),
    layer("wow.udprt.flush_ns_per_frame_1200", "ns", Lower, "msgs_per_s on live-ring at tunnel-MTU frames"),
    layer("wow.udprt.recv_batch_ns_per_frame", "ns", Lower, "msgs_per_s and delivery_p50_us on live-ring"),
    layer("vnet.tcp.ns_per_segment", "ns", Lower, "wall_s on vnet-transfer only"),
    layer("vnet.ipop.ns_per_packet", "ns", Lower, "wall_s on vnet-transfer only"),
    layer("vnet.ipop.tunnelled", "count", Lower, "0 on the ring and join workloads: they bypass vnet"),
    layer("vnet.tcp.goodput_sim_kbs", "KB/s", Higher, "vnet-transfer: simulated ttcp bandwidth, shortcuts on (exact)"),
    layer("vnet.tcp.goodput_multihop_sim_kbs", "KB/s", Higher, "vnet-transfer: the same with shortcuts off (exact)"),
    layer("wow.testbed.routable_p90_sim_s", "s", Lower, "setup_s on vnet-transfer: 90% of compute nodes routable after start (exact)"),
    layer("wow.testbed.hops_multihop_mean", "hops", Lower, "vnet-transfer: overlay hops per packet with shortcuts off; the route, and so goodput_multihop, is the seed's luck (exact)"),
    layer("wow.testbed.ping_rtt_p50_sim_us", "us", Lower, "delivery_p50_us on vnet-transfer (exact)"),
    layer("trace.spans", "count", Lower, "spans recorded in the traced window"),
    layer("trace.corpus_frames", "count", Higher, "datagrams sampled for the layer kernels"),
    layer("trace.overhead_share", "ratio", Lower, "validity: traced over untraced wall_s, minus 1"),
    layer("trace.accounted_share", "ratio", Higher, "validity: sum of ops x kernel ns/op over the window"),
    layer("proc.threads", "count", Lower, "never above nproc"),
    layer("proc.wall_s_traced", "s", Lower, "wall_s of the traced window itself"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 12;

/// The contract's `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
