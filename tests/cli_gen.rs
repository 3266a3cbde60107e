//! `ldc gen` builds through `GraphSource`: parameters outside a
//! generator's preconditions exit 2 with the same typed message a batch
//! spec gets, instead of panicking.

use std::process::Command;

fn gen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ldc"))
        .arg("gen")
        .args(args)
        .output()
        .expect("ldc runs")
}

#[test]
fn out_of_range_generator_parameters_exit_2_with_a_typed_message() {
    for (args, message) in [
        (
            &["regular", "5", "3"][..],
            "regular needs d < n and n*d even, got n = 5, d = 3",
        ),
        (&["tree", "10", "0"][..], "tree needs arity >= 1"),
        (&["ring", "2"][..], "ring needs n >= 3, got 2"),
    ] {
        let out = gen(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
    }
}

#[test]
fn valid_parameters_write_the_edge_list() {
    let out = gen(&["ring", "4"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    // A header line plus one line per edge.
    assert_eq!(text.lines().count(), 5, "{text}");
}
