//! Helpers shared by the integration test targets.

/// Strips every measured `"perf":{...}` object out of a report JSON:
/// wall times, steps/sec, the block counters and the cross-job
/// `artifact_hits` counter vary run to run, while everything
/// verdict-bearing must be byte-identical.
pub fn strip_perf(json: &str) -> String {
    let mut out = json.to_owned();
    while let Some(start) = out.find("\"perf\":{") {
        let brace = start + "\"perf\":".len();
        let mut depth = 0usize;
        let mut end = brace;
        for (i, c) in out[brace..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = brace + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        // Also swallow one adjacent comma so the remainder stays valid.
        let end = if out[end..].starts_with(',') {
            end + 1
        } else {
            end
        };
        out.replace_range(start..end, "");
    }
    out
}
