//! Event-log lines, written as bytes.
//!
//! Every applied event folds one text line, newline included, into the
//! campaign digest. A [`Line`] builds that text in one reused buffer
//! with plain decimal and hex writers, so the digest folds the whole
//! line in one pass and no formatter runs. The text is exactly what the
//! `format!` templates `t={} id={} ev=… key={}` and `fp={:016x}` give,
//! which the digests and fixtures pin.

/// One event-log line: `t={time} id={id} ev={name}` followed by
/// ` key=value` fields. The buffer is reused from line to line.
#[derive(Default)]
pub(crate) struct Line {
    buf: Vec<u8>,
}

impl Line {
    /// Start a new line: `t={time} id={id} ev={name}`.
    pub(crate) fn begin(&mut self, time: u64, id: u64, name: &str) -> &mut Self {
        self.buf.clear();
        self.buf.extend_from_slice(b"t=");
        self.decimal(time);
        self.buf.extend_from_slice(b" id=");
        self.decimal(id);
        self.buf.extend_from_slice(b" ev=");
        self.buf.extend_from_slice(name.as_bytes());
        self
    }

    /// Append ` {key}={value}`, the value in decimal.
    pub(crate) fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.decimal(value);
        self
    }

    /// Append ` {key}={text}`.
    pub(crate) fn text(&mut self, key: &str, text: &str) -> &mut Self {
        self.key(key);
        self.buf.extend_from_slice(text.as_bytes());
        self
    }

    /// Append ` {key}={value:016x}`: sixteen lower-case hex digits.
    pub(crate) fn hex(&mut self, key: &str, value: u64) -> &mut Self {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        self.key(key);
        let mut out = [0u8; 16];
        for (i, d) in out.iter_mut().enumerate() {
            *d = DIGITS[((value >> (60 - 4 * i)) & 0xF) as usize];
        }
        self.buf.extend_from_slice(&out);
        self
    }

    /// End the line with its newline and return every byte of it, as
    /// the digest folds it.
    pub(crate) fn end(&mut self) -> &[u8] {
        self.buf.push(b'\n');
        &self.buf
    }

    /// The ended line without its newline, as the recorded log keeps it.
    pub(crate) fn recorded(&self) -> String {
        let text = &self.buf[..self.buf.len() - 1];
        String::from_utf8(text.to_vec()).expect("log lines are ASCII")
    }

    fn key(&mut self, key: &str) {
        self.buf.push(b' ');
        self.buf.extend_from_slice(key.as_bytes());
        self.buf.push(b'=');
    }

    fn decimal(&mut self, mut value: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskKind;

    const NUMBERS: [u64; 6] = [0, 9, 10, 1200, 4_294_967_295, u64::MAX];

    /// What the engine's dispatch lines may say after `out=`.
    const OUTCOMES: [&str; 9] = [
        "drop_req",
        "dead",
        "crash",
        "hang",
        "deliver",
        "duplicate",
        "reorder",
        "corrupt",
        "drop_resp",
    ];

    fn ended(line: &mut Line) -> String {
        let bytes = line.end().to_vec();
        let text = line.recorded();
        assert_eq!(
            bytes,
            format!("{text}\n").into_bytes(),
            "end adds one newline"
        );
        text
    }

    #[test]
    fn decimal_and_hex_fields_equal_the_formatter() {
        let mut line = Line::default();
        for t in NUMBERS {
            for id in NUMBERS {
                for v in NUMBERS {
                    line.begin(t, id, "sched").num("assigned", v);
                    assert_eq!(
                        ended(&mut line),
                        format!("t={t} id={id} ev=sched assigned={v}")
                    );
                    line.begin(t, id, "complete").hex("fp", v);
                    assert_eq!(
                        ended(&mut line),
                        format!("t={t} id={id} ev=complete fp={v:016x}")
                    );
                }
            }
        }
        line.begin(0, 0, "x").hex("fp", 0).hex("fp", u64::MAX);
        assert_eq!(
            ended(&mut line),
            "t=0 id=0 ev=x fp=0000000000000000 fp=ffffffffffffffff"
        );
    }

    #[test]
    fn every_line_kind_equals_its_format_template() {
        let mut line = Line::default();
        for v in NUMBERS {
            let (t, id) = (v, v / 3);
            let node = (v % (u32::MAX as u64 + 1)) as u32;
            for kind in TaskKind::ALL.map(TaskKind::label) {
                for out in OUTCOMES {
                    line.begin(t, id, "dispatch")
                        .num("node", node.into())
                        .text("kind", kind)
                        .text("out", out);
                    assert_eq!(
                        ended(&mut line),
                        format!("t={t} id={id} ev=dispatch node={node} kind={kind} out={out}")
                    );
                }
                line.begin(t, id, "dedup")
                    .num("node", node.into())
                    .text("kind", kind)
                    .num("seq", v);
                assert_eq!(
                    ended(&mut line),
                    format!("t={t} id={id} ev=dedup node={node} kind={kind} seq={v}")
                );
                line.begin(t, id, "complete")
                    .num("node", node.into())
                    .text("kind", kind)
                    .hex("fp", v);
                assert_eq!(
                    ended(&mut line),
                    format!("t={t} id={id} ev=complete node={node} kind={kind} fp={v:016x}")
                );
                line.begin(t, id, "corrupt")
                    .num("node", node.into())
                    .text("kind", kind);
                assert_eq!(
                    ended(&mut line),
                    format!("t={t} id={id} ev=corrupt node={node} kind={kind}")
                );
                line.begin(t, id, "backlog")
                    .num("node", node.into())
                    .text("kind", kind)
                    .num("seq", v)
                    .num("until", t);
                assert_eq!(
                    ended(&mut line),
                    format!("t={t} id={id} ev=backlog node={node} kind={kind} seq={v} until={t}")
                );
            }
            line.begin(t, id, "partition")
                .num("spec", v)
                .num("severed", v)
                .num("heal", t);
            assert_eq!(
                ended(&mut line),
                format!("t={t} id={id} ev=partition spec={v} severed={v} heal={t}")
            );
            line.begin(t, id, "heal").num("spec", v).num("healed", v);
            assert_eq!(
                ended(&mut line),
                format!("t={t} id={id} ev=heal spec={v} healed={v}")
            );
            line.begin(t, id, "cloud_crash")
                .num("replayed", v)
                .num("down_ticks", id);
            assert_eq!(
                ended(&mut line),
                format!("t={t} id={id} ev=cloud_crash replayed={v} down_ticks={id}")
            );
            line.begin(t, id, "audit")
                .num("audited", v)
                .num("anomalies", id)
                .num("quarantined", t);
            assert_eq!(
                ended(&mut line),
                format!("t={t} id={id} ev=audit audited={v} anomalies={id} quarantined={t}")
            );
            for name in ["coverage90", "cloud_restart", "end"] {
                line.begin(t, id, name);
                assert_eq!(ended(&mut line), format!("t={t} id={id} ev={name}"));
            }
        }
    }
}
