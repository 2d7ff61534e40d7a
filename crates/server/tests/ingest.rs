//! Ingestion hardening: a hostile input stream is counted, surfaced,
//! and skipped — it never aborts the server and never corrupts state.

use arm_core::scenario::{EnvSpec, MobilitySpec, Scenario, WorkloadSpec};
use arm_core::Strategy;
use arm_obs::{Obs, ObsEvent};
use arm_server::{IngestError, LineOutcome, Server, ServerConfig, ServerEvent};
use arm_sim::SimTime;

fn cfg(seed: u64) -> ServerConfig {
    ServerConfig {
        scenario: Scenario {
            name: "server-ingest".into(),
            environment: EnvSpec::Figure4,
            mobility: MobilitySpec::RandomWalk {
                population: 4,
                mean_dwell_secs: 90,
                span_mins: 5,
            },
            workload: WorkloadSpec::None,
            strategy: Strategy::Paper,
            cell_throughput_kbps: 800.0,
            backbone_kbps: 100_000.0,
            wireless_error: 0.0,
            t_th_secs: 300,
            seed,
        },
        checkpoint_every: 0,
        backlog_capacity: 16,
    }
}

fn line(ev: &ServerEvent) -> String {
    ev.to_jsonl().expect("serializable")
}

#[test]
fn hostile_corpus_never_aborts_the_stream() {
    let mut server = Server::new(cfg(3), Obs::recording(4096)).expect("valid scenario");

    // A healthy prelude: one portable appears and asks for bandwidth.
    let good = [
        line(&ServerEvent::Appear {
            t: SimTime::from_secs(10),
            portable: arm_net::ids::PortableId(0),
            cell: arm_net::ids::CellId(0),
        }),
        line(&ServerEvent::Request {
            t: SimTime::from_secs(11),
            portable: arm_net::ids::PortableId(0),
            b_min_kbps: 16.0,
            b_max_kbps: 64.0,
        }),
    ];
    for l in &good {
        assert_eq!(server.ingest_line(l), LineOutcome::Accepted, "{l}");
    }

    // The corpus: every class of bad line, with the reason slug each
    // must surface under.
    let corpus: Vec<(String, &str)> = vec![
        ("{".into(), "malformed"),
        ("not json at all".into(), "malformed"),
        (r#"{"Teleport":{"t":0,"portable":0}}"#.into(), "malformed"),
        // JSON null where a rate belongs fails f64 decoding.
        (
            r#"{"Request":{"t":12000000,"portable":0,"b_min_kbps":null,"b_max_kbps":64.0}}"#.into(),
            "malformed",
        ),
        // Negative and zero rates decode fine but are semantically bad.
        (
            r#"{"Request":{"t":12000000,"portable":1,"b_min_kbps":-16.0,"b_max_kbps":64.0}}"#
                .into(),
            "unknown-entity", // portable 1 never appeared — checked first
        ),
        (
            line(&ServerEvent::Request {
                t: SimTime::from_secs(12),
                portable: arm_net::ids::PortableId(0),
                b_min_kbps: -16.0,
                b_max_kbps: 64.0,
            }),
            "negative-rate",
        ),
        (
            line(&ServerEvent::Request {
                t: SimTime::from_secs(12),
                portable: arm_net::ids::PortableId(0),
                b_min_kbps: 64.0,
                b_max_kbps: 16.0,
            }),
            "invalid-parameter", // inverted bounds
        ),
        // Time running backwards.
        (
            line(&ServerEvent::Move {
                t: SimTime::from_secs(1),
                portable: arm_net::ids::PortableId(0),
                to: arm_net::ids::CellId(1),
            }),
            "out-of-order",
        ),
        // References past the edge of the world.
        (
            line(&ServerEvent::LinkDown {
                t: SimTime::from_secs(13),
                link: arm_net::ids::LinkId(9999),
            }),
            "unknown-entity",
        ),
        (
            line(&ServerEvent::ProfileServerDown {
                t: SimTime::from_secs(13),
                zone: arm_net::ids::ZoneId(77),
            }),
            "unknown-entity",
        ),
        (
            line(&ServerEvent::Appear {
                t: SimTime::from_secs(13),
                portable: arm_net::ids::PortableId(5),
                cell: arm_net::ids::CellId(200),
            }),
            "unknown-entity",
        ),
        (
            line(&ServerEvent::Move {
                t: SimTime::from_secs(13),
                portable: arm_net::ids::PortableId(42),
                to: arm_net::ids::CellId(0),
            }),
            "unknown-entity",
        ),
        // A second Appear for a present portable.
        (
            line(&ServerEvent::Appear {
                t: SimTime::from_secs(13),
                portable: arm_net::ids::PortableId(0),
                cell: arm_net::ids::CellId(0),
            }),
            "invalid-parameter",
        ),
        // Channel fraction outside (0, 1].
        (
            line(&ServerEvent::ChannelChange {
                t: SimTime::from_secs(13),
                cell: arm_net::ids::CellId(0),
                fraction: 1.5,
            }),
            "invalid-parameter",
        ),
    ];

    let before = server.accepted();
    for (l, want_reason) in &corpus {
        match server.ingest_line(l) {
            LineOutcome::Rejected(e) => {
                assert_eq!(&e.reason(), want_reason, "line {l} -> {e}");
            }
            LineOutcome::Accepted => panic!("corpus line accepted: {l}"),
        }
    }
    assert_eq!(
        server.accepted(),
        before,
        "rejections must not change state"
    );
    assert_eq!(server.rejected(), corpus.len() as u64);

    // The stream continues: a good event still lands.
    let tail = line(&ServerEvent::Move {
        t: SimTime::from_secs(20),
        portable: arm_net::ids::PortableId(0),
        to: arm_net::ids::CellId(1),
    });
    assert_eq!(server.ingest_line(&tail), LineOutcome::Accepted);
    assert_eq!(server.accepted(), before + 1);

    // Every rejection surfaced on the observability stream, with its
    // slug.
    let obs = server.mgr.take_obs();
    let rejections: Vec<ObsEvent> = obs
        .snapshot_events()
        .into_iter()
        .filter(|e| matches!(e, ObsEvent::IngestRejected { .. }))
        .collect();
    assert_eq!(rejections.len(), corpus.len());
    for ((_, want_reason), got) in corpus.iter().zip(&rejections) {
        match got {
            ObsEvent::IngestRejected { reason, detail, .. } => {
                assert_eq!(reason, want_reason);
                assert!(!detail.is_empty());
            }
            other => panic!("want IngestRejected, got {other:?}"),
        }
    }
    let counted = obs
        .event_counts()
        .into_iter()
        .find(|c| c.kind == "IngestRejected")
        .expect("IngestRejected counted");
    assert_eq!(counted.count, corpus.len() as u64);
}

#[test]
fn non_finite_rates_are_typed_rejections() {
    // JSON cannot carry NaN, but the programmatic path must still
    // reject it (a buggy upstream could construct events directly).
    let mut server = Server::new(cfg(4), Obs::off()).expect("valid scenario");
    server
        .apply_event(&ServerEvent::Appear {
            t: SimTime::from_secs(1),
            portable: arm_net::ids::PortableId(0),
            cell: arm_net::ids::CellId(0),
        })
        .expect("valid event");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = server
            .apply_event(&ServerEvent::Request {
                t: SimTime::from_secs(2),
                portable: arm_net::ids::PortableId(0),
                b_min_kbps: bad,
                b_max_kbps: 64.0,
            })
            .expect_err("NaN/Inf must be rejected");
        assert!(matches!(err, IngestError::NonFinite { .. }), "{bad}: {err}");
        let err = server
            .apply_event(&ServerEvent::ChannelChange {
                t: SimTime::from_secs(2),
                cell: arm_net::ids::CellId(0),
                fraction: bad,
            })
            .expect_err("NaN/Inf fraction must be rejected");
        assert!(matches!(err, IngestError::NonFinite { .. }), "{bad}: {err}");
    }
    assert_eq!(server.rejected(), 6);
}

#[test]
fn degraded_mode_sheds_to_the_guaranteed_floor() {
    let mut server = Server::new(cfg(5), Obs::off()).expect("valid scenario");
    let p = arm_net::ids::PortableId(0);
    server
        .apply_event(&ServerEvent::Appear {
            t: SimTime::from_secs(1),
            portable: p,
            cell: arm_net::ids::CellId(0),
        })
        .expect("valid event");
    assert!(!server.degraded());

    // Queue pressure on: the next admission is squeezed to b_min.
    server
        .apply_event(&ServerEvent::QueuePressure {
            t: SimTime::from_secs(2),
            on: true,
        })
        .expect("valid event");
    assert!(server.degraded());
    server
        .apply_event(&ServerEvent::Request {
            t: SimTime::from_secs(3),
            portable: p,
            b_min_kbps: 16.0,
            b_max_kbps: 64.0,
        })
        .expect("valid event");
    assert_eq!(server.shed(), 1, "adaptive request squeezed");
    let conn = server
        .mgr
        .net
        .connections_of_portable(p)
        .next()
        .expect("admitted");
    assert_eq!(conn.qos.b_max, conn.qos.b_min, "admitted at the floor");

    // Pressure off: back to full-quality admissions.
    server
        .apply_event(&ServerEvent::QueuePressure {
            t: SimTime::from_secs(4),
            on: false,
        })
        .expect("valid event");
    assert!(!server.degraded());

    // Profile-server outage also degrades.
    server
        .apply_event(&ServerEvent::ProfileServerDown {
            t: SimTime::from_secs(5),
            zone: arm_net::ids::ZoneId(0),
        })
        .expect("valid event");
    assert!(server.degraded(), "profile outage degrades the server");
    server
        .apply_event(&ServerEvent::ProfileServerUp {
            t: SimTime::from_secs(6),
            zone: arm_net::ids::ZoneId(0),
        })
        .expect("valid event");
    assert!(!server.degraded());
}

/// One input line of a hundred thousand `[` used to recurse the parser
/// off the end of the stack: the process died of `SIGABRT` with every
/// admitted connection. Through the real binary, over stdin: the line
/// is one more counted rejection, the line after it is served, and the
/// process exits cleanly. The same text as a checkpoint file is a
/// refused snapshot (exit 1 with a message), not a crash.
#[test]
fn a_deeply_nested_line_does_not_kill_run_server() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let appear = |secs: u64, portable: u32| {
        line(&ServerEvent::Appear {
            t: SimTime::from_secs(secs),
            portable: arm_net::ids::PortableId(portable),
            cell: arm_net::ids::CellId(0),
        })
    };
    let bomb = "[".repeat(100_000);
    let keyed_bomb = "{\"a\":".repeat(100_000);
    let input = [
        appear(10, 0),
        bomb.clone(),
        appear(11, 1),
        keyed_bomb,
        appear(12, 2),
    ]
    .join("\n")
        + "\n";

    let mut child = Command::new(env!("CARGO_BIN_EXE_run_server"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run_server starts");
    let mut stdin = child.stdin.take().expect("piped");
    // The server reads as this writes, so the pipe cannot fill; if the
    // server dies the write fails, and the exit status says why.
    let _ = stdin.write_all(input.as_bytes());
    drop(stdin);
    let out = child.wait_with_output().expect("run_server exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(
        stderr.contains("(3 accepted, 2 rejected, 0 shed)"),
        "{stderr}"
    );

    let dir = std::env::temp_dir().join(format!("arm-deepsnap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("snapshot-latest.json");
    std::fs::write(&snapshot, &bomb).expect("snapshot written");
    let out = Command::new(env!("CARGO_BIN_EXE_run_server"))
        .args(["--restore", snapshot.to_str().expect("UTF-8 temp path")])
        .stdin(Stdio::null())
        .output()
        .expect("run_server starts");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("snapshot rejected") && stderr.contains("nesting deeper than 128"),
        "{stderr}"
    );
}

/// The server's image as text, its rejection counter set back by
/// `forgiven` (the one field a refused line moves).
fn image_less_rejections(server: &Server, forgiven: u64) -> String {
    let snap = server.snapshot();
    let text = snap.to_json().expect("serializable");
    let (a, r) = (server.accepted(), server.rejected());
    let counters = format!("\"accepted\":{a},\"rejected\":{r},");
    assert_eq!(text.matches(&counters).count(), 1, "{counters}");
    let restored = format!("\"accepted\":{a},\"rejected\":{},", r - forgiven);
    text.replace(&counters, &restored)
}

/// A `Move` to the cell the portable is already in is a no-op move the
/// manager cannot make: it is refused as an invalid parameter, like a
/// second `Appear`, is counted, and leaves the state as it was — the
/// manager's snapshot bytes unchanged, the server's changed only in its
/// rejection counter. A stream with such a line after every appearance
/// and move ends byte-identical (that counter aside) to the stream
/// without them.
#[test]
fn a_move_to_the_portables_own_cell_is_refused() {
    use arm_net::ids::{CellId, PortableId};

    // The line as it arrives, after portable 7 appeared in cell 2.
    let mut server = Server::new(cfg(5), Obs::off()).expect("valid scenario");
    let appear = line(&ServerEvent::Appear {
        t: SimTime::from_ticks(1000),
        portable: PortableId(7),
        cell: CellId(2),
    });
    assert_eq!(server.ingest_line(&appear), LineOutcome::Accepted);
    let (manager, image) = (
        server.mgr.snapshot().to_json().expect("serializable"),
        image_less_rejections(&server, 0),
    );
    match server.ingest_line(r#"{"Move":{"t":2000,"portable":7,"to":2}}"#) {
        LineOutcome::Rejected(e) => {
            assert!(matches!(e, IngestError::InvalidParameter { .. }), "{e}");
            assert_eq!(e.reason(), "invalid-parameter");
        }
        LineOutcome::Accepted => panic!("a no-op move was accepted"),
    }
    assert_eq!((server.accepted(), server.rejected()), (1, 1));
    assert_eq!(
        server.mgr.snapshot().to_json().expect("serializable"),
        manager
    );
    assert_eq!(image_less_rejections(&server, 1), image);

    // Interleaved through a whole stream with connections.
    let mut sc = cfg(5).scenario;
    sc.workload = WorkloadSpec::Paper71;
    sc.mobility = MobilitySpec::RandomWalk {
        population: 12,
        mean_dwell_secs: 60,
        span_mins: 20,
    };
    let events = arm_server::drill::events_from_scenario(&sc, &arm_sim::FaultSchedule::empty())
        .expect("valid scenario");
    let config = || ServerConfig {
        scenario: sc.clone(),
        ..cfg(5)
    };
    let mut plain = Server::new(config(), Obs::off()).expect("valid scenario");
    let mut noisy = Server::new(config(), Obs::off()).expect("valid scenario");
    let (mut refused, mut carried) = (0, 0);
    for ev in &events {
        let l = line(ev);
        assert_eq!(plain.ingest_line(&l), LineOutcome::Accepted, "{l}");
        assert_eq!(noisy.ingest_line(&l), LineOutcome::Accepted, "{l}");
        carried = carried.max(plain.mgr.net.live_connections().count());
        let stay = match *ev {
            ServerEvent::Appear { t, portable, cell } => Some((t, portable, cell)),
            ServerEvent::Move { t, portable, to } => Some((t, portable, to)),
            _ => None,
        };
        if let Some((t, portable, to)) = stay {
            let l = line(&ServerEvent::Move { t, portable, to });
            assert!(
                matches!(
                    noisy.ingest_line(&l),
                    LineOutcome::Rejected(IngestError::InvalidParameter { .. })
                ),
                "{l}"
            );
            refused += 1;
        }
    }
    assert!(refused > 100, "only {refused} no-op moves interleaved");
    assert!(carried > 5, "at most {carried} connections open at once");
    assert_eq!(noisy.rejected(), refused);
    assert_eq!(noisy.accepted(), plain.accepted());
    assert_eq!(
        noisy.mgr.snapshot().to_json().expect("serializable"),
        plain.mgr.snapshot().to_json().expect("serializable")
    );
    assert_eq!(
        image_less_rejections(&noisy, refused),
        image_less_rejections(&plain, 0)
    );
}
