//! Reply checking: every request sent gets exactly one reply, and each
//! reply is one of the lines the in-process model says is correct.

use std::collections::HashMap;

use crate::loadgen::Reply;

/// Checks `replies` against the requests sent. `expected` maps every id
/// sent to the reply lines that would be correct for it (one line when
/// the answer is exact; several when any of a set of fresh answers is
/// acceptable, as for cached answers); a typed load-shedding refusal is
/// also acceptable (the load statistics count it as failed). Fails on a
/// missing, duplicated, unknown, id-less or wrong reply, naming the
/// first few of each.
pub fn replies_match(
    expected: &HashMap<u64, Vec<String>>,
    replies: &[Reply],
) -> Result<(), String> {
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(expected.len());
    let mut problems = Problems::default();
    for reply in replies {
        let Some(id) = reply.id else {
            problems.push("reply without an id", &reply.line);
            continue;
        };
        let Some(ok_lines) = expected.get(&id) else {
            problems.push("reply to an id never sent", &reply.line);
            continue;
        };
        let count = seen.entry(id).or_insert(0);
        *count += 1;
        if *count > 1 {
            problems.push("duplicate reply", &reply.line);
        } else if !reply.refused && !ok_lines.contains(&reply.line) {
            let want = ok_lines.first().map_or("", String::as_str);
            problems.push("wrong reply", &format!("{} (want {want})", reply.line));
        }
    }
    let mut missing: Vec<u64> = expected
        .keys()
        .filter(|id| !seen.contains_key(id))
        .copied()
        .collect();
    missing.sort_unstable();
    for id in missing {
        problems.push("missing reply", &format!("id {id}"));
    }
    problems.into_result()
}

#[derive(Default)]
struct Problems {
    counts: Vec<(&'static str, usize, Vec<String>)>,
}

impl Problems {
    fn push(&mut self, kind: &'static str, detail: &str) {
        let pos = match self.counts.iter().position(|(k, ..)| *k == kind) {
            Some(pos) => pos,
            None => {
                self.counts.push((kind, 0, Vec::new()));
                self.counts.len() - 1
            }
        };
        let entry = &mut self.counts[pos];
        entry.1 += 1;
        if entry.2.len() < 3 {
            entry.2.push(detail.to_string());
        }
    }

    fn into_result(self) -> Result<(), String> {
        if self.counts.is_empty() {
            return Ok(());
        }
        Err(self
            .counts
            .iter()
            .map(|(kind, n, examples)| format!("{n} x {kind}: {}", examples.join("; ")))
            .collect::<Vec<_>>()
            .join(" | "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_serve::protocol::{render_error, render_ok};
    use deepod_serve::WireResponse;

    fn reply(id: u64, eta: f32) -> Reply {
        Reply {
            id: Some(id),
            line: render_ok(id, eta, false),
            ok: true,
            refused: false,
        }
    }

    fn error_reply(line: &str) -> Reply {
        Reply::of(&WireResponse::parse(line).expect("a valid error frame"))
    }

    fn expected() -> HashMap<u64, Vec<String>> {
        (0..4u64)
            .map(|id| (id, vec![render_ok(id, 100.0 + id as f32, false)]))
            .collect()
    }

    fn good() -> Vec<Reply> {
        (0..4u64).map(|id| reply(id, 100.0 + id as f32)).collect()
    }

    #[test]
    fn accepts_one_correct_reply_per_id_in_any_order() {
        let mut replies = good();
        replies.reverse();
        assert_eq!(replies_match(&expected(), &replies), Ok(()));
    }

    #[test]
    fn rejects_an_altered_reply() {
        let mut replies = good();
        replies[2] = reply(2, 102.1);
        let err = replies_match(&expected(), &replies).expect_err("altered eta");
        assert!(err.contains("wrong reply"), "{err}");
        let mut degraded = good();
        degraded[1].line = render_ok(1, 101.0, true);
        assert!(replies_match(&expected(), &degraded).is_err());
    }

    #[test]
    fn rejects_a_duplicated_reply() {
        let mut replies = good();
        replies.push(reply(3, 103.0));
        let err = replies_match(&expected(), &replies).expect_err("duplicate");
        assert!(err.contains("duplicate reply"), "{err}");
    }

    #[test]
    fn rejects_a_missing_reply() {
        let mut replies = good();
        replies.remove(0);
        let err = replies_match(&expected(), &replies).expect_err("missing");
        assert!(
            err.contains("missing reply") && err.contains("id 0"),
            "{err}"
        );
    }

    #[test]
    fn rejects_unknown_and_id_less_replies() {
        let mut replies = good();
        replies.push(reply(9, 1.0));
        replies.push(error_reply("{\"id\":null,\"error\":\"bad\"}"));
        let err = replies_match(&expected(), &replies).expect_err("unknown");
        assert!(
            err.contains("never sent") && err.contains("without an id"),
            "{err}"
        );
    }

    #[test]
    fn accepts_refusals_but_not_other_errors() {
        let mut replies = good();
        replies[1] =
            error_reply("{\"id\":1,\"error\":{\"kind\":\"in_flight_limit\",\"msg\":\"cap 32\"}}");
        replies[2] = error_reply(&render_error(Some(2), "queue full (capacity 1)"));
        assert_eq!(replies_match(&expected(), &replies), Ok(()));
        replies[3] = error_reply(&render_error(Some(3), "worker crashed"));
        let err = replies_match(&expected(), &replies).expect_err("crash is not a refusal");
        assert!(err.contains("wrong reply"), "{err}");
    }

    #[test]
    fn accepts_any_listed_answer_for_a_key() {
        let mut exp = expected();
        exp.insert(
            2,
            vec![render_ok(2, 7.0, false), render_ok(2, 102.0, false)],
        );
        assert_eq!(replies_match(&exp, &good()), Ok(()));
    }
}
