//! Wire-level fault injection: garbage bytes, truncated lines, oversized
//! frames, unknown verbs, type confusion and depth bombs must all come
//! back as structured `{"ok":false,...}` errors (or a clean close for
//! unrecoverable frames) — never a panic, never a wedged server.

use std::time::Duration;

use aq_serve::{Json, SchemeClass, ServeConfig, ServeCore, Server, TcpClient, MAX_FRAME_BYTES};
use aq_testutil::Rng;

struct Harness {
    addr: std::net::SocketAddr,
    server_thread: std::thread::JoinHandle<()>,
}

fn start_server(name: &str) -> Harness {
    start_server_with(name, |_| {})
}

fn start_server_with(name: &str, tweak: impl FnOnce(&mut ServeConfig)) -> Harness {
    let mut cfg = ServeConfig {
        workers: vec![SchemeClass::Numeric],
        queue_capacity: 8,
        checkpoint_dir: std::env::temp_dir()
            .join(format!("aq-serve-faults-{}-{name}", std::process::id())),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let core = ServeCore::start(cfg).expect("start worker pool");
    let server = Server::bind(core, 0).expect("bind ephemeral port");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || {
        server.run().expect("accept loop");
    });
    Harness {
        addr,
        server_thread,
    }
}

fn assert_structured_error(response: &str, context: &str) {
    let json = Json::parse(response)
        .unwrap_or_else(|e| panic!("{context}: response is not JSON ({e}): {response}"));
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(false),
        "{context}: expected ok:false in {response}"
    );
    let error = json
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{context}: no error field in {response}"));
    assert!(!error.is_empty(), "{context}: empty error message");
}

fn assert_alive(client: &mut TcpClient) {
    let response = client
        .roundtrip(r#"{"verb":"metrics"}"#)
        .expect("connection must still work after a recoverable fault");
    let json = Json::parse(&response).expect("metrics response is JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn malformed_requests_get_structured_errors_and_keep_the_connection() {
    let h = start_server("malformed");
    let mut client = TcpClient::connect(h.addr).expect("connect");

    let cases: &[(&str, &str)] = &[
        ("not json at all", "plain garbage"),
        ("{", "unterminated object"),
        (r#"{"verb":42}"#, "non-string verb"),
        (r#"{"verb":"frobnicate"}"#, "unknown verb"),
        (r#"{"verb":"submit"}"#, "submit without a circuit"),
        (r#"{"verb":"status","job":"seven"}"#, "non-numeric job id"),
        (r#"{"verb":"status","job":-3}"#, "negative job id"),
        (r#"[1,2,3]"#, "non-object request"),
        (r#""just a string""#, "string request"),
    ];
    for (line, context) in cases {
        let response = client.roundtrip(line).expect("roundtrip");
        assert_structured_error(&response, context);
    }

    // An out-of-range register width parses fine but fails admission:
    // that is a *rejection* (ok:true, state:rejected), not a protocol
    // error — the distinction keeps the metrics reconciliation honest.
    let response = client
        .roundtrip(
            r#"{"verb":"submit","circuit":"grover","n":99,"marked":0,"budget":{"max_nodes":10}}"#,
        )
        .expect("roundtrip");
    let json = Json::parse(&response).expect("JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("state").and_then(Json::as_str), Some("rejected"));
    assert!(
        json.get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("1..=24")),
        "unexpected rejection: {response}"
    );

    // A depth bomb must hit the parser's depth limit, not the stack.
    let bomb = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    let response = client.roundtrip(&bomb).expect("roundtrip");
    assert_structured_error(&response, "depth bomb");

    assert_alive(&mut client);

    // Blank keep-alive lines are ignored, not answered.
    client.send_raw(b"\n  \n").expect("send blanks");
    assert_alive(&mut client);

    let shutdown = client
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    assert!(
        shutdown.contains("\"ok\":true"),
        "shutdown failed: {shutdown}"
    );
    h.server_thread.join().expect("server exits cleanly");
}

#[test]
fn repeated_qasm_operands_are_rejected_and_the_server_keeps_serving() {
    let h = start_server("repeated-operands");
    let mut client = TcpClient::connect(h.addr).expect("connect");
    for stmt in ["cx q[0],q[0];", "swap q[1],q[1];"] {
        let submit = format!(
            r#"{{"verb":"submit","qasm":"OPENQASM 2.0;\nqreg q[2];\n{stmt}\n","budget":{{"max_nodes":100000}}}}"#
        );
        let response = client.roundtrip(&submit).expect("roundtrip");
        let json = Json::parse(&response).expect("JSON");
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        assert_eq!(
            json.get("state").and_then(Json::as_str),
            Some("rejected"),
            "{stmt}: {response}"
        );
        assert!(
            json.get("reason")
                .and_then(Json::as_str)
                .is_some_and(|r| r.contains("line 3") && r.contains("must be distinct")),
            "{stmt}: {response}"
        );
    }

    // the same server still runs a valid job to completion
    let response = client
        .roundtrip(
            r#"{"verb":"submit","qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","budget":{"max_nodes":100000}}"#,
        )
        .expect("roundtrip");
    let json = Json::parse(&response).expect("JSON");
    let id = json
        .get("job")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("valid job admitted: {response}"));
    let response = client
        .roundtrip(&format!(
            r#"{{"verb":"wait","job":{id},"timeout_secs":60}}"#
        ))
        .expect("wait");
    let json = Json::parse(&response).expect("JSON");
    assert_eq!(
        json.get("state").and_then(Json::as_str),
        Some("completed"),
        "{response}"
    );

    let shutdown = client
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    assert!(shutdown.contains("\"ok\":true"), "{shutdown}");
    h.server_thread.join().expect("server exits cleanly");
}

#[test]
fn random_garbage_bytes_never_panic_the_server() {
    let h = start_server("garbage");
    let mut rng = Rng::from_seed(0xFA17);
    for round in 0..20 {
        let mut client = TcpClient::connect(h.addr).expect("connect");
        let len = 1 + rng.below(512) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Keep it a single frame: newline terminates, so reserve it.
        for b in &mut bytes {
            if *b == b'\n' {
                *b = b'X';
            }
        }
        bytes.push(b'\n');
        client.send_raw(&bytes).expect("send garbage");
        let response = client
            .read_line()
            .unwrap_or_else(|e| panic!("round {round}: no response to garbage: {e}"));
        assert_structured_error(&response, &format!("garbage round {round}"));
        assert_alive(&mut client);
    }
    let mut client = TcpClient::connect(h.addr).expect("connect");
    client
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    h.server_thread.join().expect("server exits cleanly");
}

#[test]
fn truncated_and_oversized_frames_are_handled() {
    let h = start_server("frames");

    // Truncated line (no newline, then half-close): the server answers
    // the partial frame with a structured error before the connection
    // winds down.
    {
        let mut client = TcpClient::connect(h.addr).expect("connect");
        client
            .send_raw(br#"{"verb":"metr"#)
            .expect("send truncated");
        client.shutdown_write().expect("half-close");
        let response = client.read_line().expect("error for truncated frame");
        assert_structured_error(&response, "truncated frame");
    }

    // Oversized frame: structured error, then the connection is closed
    // (there is no way to resynchronise mid-frame).
    {
        let mut client = TcpClient::connect(h.addr).expect("connect");
        let oversized = vec![b'a'; MAX_FRAME_BYTES + 10];
        client.send_raw(&oversized).expect("send oversized");
        client.send_raw(b"\n").expect("terminate");
        let response = client.read_line().expect("error for oversized frame");
        assert_structured_error(&response, "oversized frame");
        assert!(
            response.contains("frame exceeds"),
            "unexpected error: {response}"
        );
        assert!(
            client.read_line().is_err(),
            "connection must close after an oversized frame"
        );
    }

    // An oversized frame must not take the server down with it.
    let mut client = TcpClient::connect(h.addr).expect("connect");
    assert_alive(&mut client);
    client
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    h.server_thread.join().expect("server exits cleanly");
}

/// A client that vanishes mid-frame (socket dropped, no half-close, no
/// newline) must cost the event loop nothing: the connection is reaped
/// and every other connection keeps working.
#[test]
fn abrupt_mid_frame_disconnect_leaves_the_server_healthy() {
    let h = start_server("midframe");
    for _ in 0..8 {
        let mut client = TcpClient::connect(h.addr).expect("connect");
        client
            .send_raw(br#"{"verb":"sub"#)
            .expect("send partial frame");
        drop(client); // abrupt close, mid-frame
    }
    let mut client = TcpClient::connect(h.addr).expect("connect");
    assert_alive(&mut client);
    client
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    h.server_thread.join().expect("server exits cleanly");
}

/// A slow-loris writer dribbling one byte at a time must not stall the
/// loop: a second connection gets full service between the dribbles, and
/// the slow request itself still completes once its newline arrives.
#[test]
fn slow_loris_writer_does_not_stall_other_connections() {
    let h = start_server("loris");
    let mut slow = TcpClient::connect(h.addr).expect("connect slow");
    let mut brisk = TcpClient::connect(h.addr).expect("connect brisk");

    let frame = b"{\"verb\":\"metrics\"}\n";
    for (i, byte) in frame.iter().enumerate() {
        slow.send_raw(std::slice::from_ref(byte)).expect("dribble");
        std::thread::sleep(Duration::from_millis(2));
        if i % 6 == 0 {
            // Full roundtrips succeed while the slow frame is incomplete.
            assert_alive(&mut brisk);
        }
    }
    let response = slow.read_line().expect("slow frame answered");
    let json = Json::parse(&response).expect("metrics response is JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));

    brisk.roundtrip(r#"{"verb":"shutdown"}"#).expect("shutdown");
    h.server_thread.join().expect("server exits cleanly");
}

/// One event loop multiplexes 64 simultaneous connections; every one of
/// them gets served.
#[test]
fn sixty_four_simultaneous_connections_are_all_served() {
    let h = start_server("many");
    let mut clients: Vec<TcpClient> = (0..64)
        .map(|i| TcpClient::connect(h.addr).unwrap_or_else(|e| panic!("connect client {i}: {e}")))
        .collect();
    // All 64 are open at once; interleave two rounds of requests.
    for round in 0..2 {
        for (i, client) in clients.iter_mut().enumerate() {
            let response = client
                .roundtrip(r#"{"verb":"metrics"}"#)
                .unwrap_or_else(|e| panic!("round {round}, client {i}: {e}"));
            let json = Json::parse(&response).expect("metrics response is JSON");
            assert_eq!(
                json.get("ok").and_then(Json::as_bool),
                Some(true),
                "round {round}, client {i}: {response}"
            );
        }
    }
    let shutdown = clients[0]
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    assert!(shutdown.contains("\"ok\":true"), "{shutdown}");
    h.server_thread.join().expect("server exits cleanly");

    // Under `--features lock-audit` the event loop fed the lock-order
    // graph; the "never hold two locks" discipline must hold for the
    // connection layer too.
    #[cfg(feature = "lock-audit")]
    {
        let cycles = aq_serve::lockaudit::detected_cycles();
        assert!(
            cycles.is_empty(),
            "lock-order cycles detected: {cycles:?}\ngraph:\n{}",
            aq_serve::lockaudit::dot_graph()
        );
        let hazards = aq_serve::lockaudit::detected_hazards();
        assert!(hazards.is_empty(), "lock hazards detected: {hazards:?}");
    }
}

/// Connections beyond `max_connections` receive a structured refusal
/// (never a silent drop), and capacity freed by a closing client becomes
/// available again.
#[test]
fn connections_over_the_cap_get_a_structured_refusal() {
    let h = start_server_with("cap", |cfg| cfg.max_connections = 2);
    let mut first = TcpClient::connect(h.addr).expect("connect first");
    let mut second = TcpClient::connect(h.addr).expect("connect second");
    // Roundtrips prove both are registered with the loop (not just in the
    // listener backlog) before the third arrives.
    assert_alive(&mut first);
    assert_alive(&mut second);

    let mut third = TcpClient::connect(h.addr).expect("tcp connect still succeeds");
    let refusal = third.read_line().expect("refusal line");
    assert_structured_error(&refusal, "over-cap connection");
    assert!(
        refusal.contains("connection limit"),
        "unexpected refusal: {refusal}"
    );

    // Freeing a slot lets a new client in (the loop reaps the closed
    // connection on its next pass).
    drop(second);
    let mut served_again = false;
    for _ in 0..200 {
        if let Ok(mut retry) = TcpClient::connect(h.addr) {
            if let Ok(response) = retry.roundtrip(r#"{"verb":"metrics"}"#) {
                if response.contains("\"ok\":true") {
                    served_again = true;
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        served_again,
        "slot freed by a closed connection is reusable"
    );

    first.roundtrip(r#"{"verb":"shutdown"}"#).expect("shutdown");
    h.server_thread.join().expect("server exits cleanly");
}

#[test]
fn responses_to_unknown_jobs_are_structured_not_errors() {
    let h = start_server("unknown");
    let mut client = TcpClient::connect(h.addr).expect("connect");
    let response = client
        .roundtrip(r#"{"verb":"status","job":123456}"#)
        .expect("roundtrip");
    let json = Json::parse(&response).expect("JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("state").and_then(Json::as_str), Some("unknown"));

    // Waiting on an unknown job answers immediately, no timeout burn.
    let t0 = std::time::Instant::now();
    let response = client
        .roundtrip(r#"{"verb":"wait","job":123456,"timeout_secs":30}"#)
        .expect("roundtrip");
    assert!(t0.elapsed() < Duration::from_secs(5));
    let json = Json::parse(&response).expect("JSON");
    assert_eq!(json.get("state").and_then(Json::as_str), Some("unknown"));

    client
        .roundtrip(r#"{"verb":"shutdown"}"#)
        .expect("shutdown");
    h.server_thread.join().expect("server exits cleanly");
}
