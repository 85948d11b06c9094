//! CSV import/export of multi-sensor streams.
//!
//! The interchange surface of the reproduction: sessions captured by the
//! simulators (or by real hardware, for anyone wiring this to a device)
//! round-trip through a plain CSV with a one-line rate header, so they can
//! be inspected, plotted, or re-ingested.

use crate::types::{MultiStream, StreamSpec};

/// Errors when parsing a stream CSV.
#[derive(Debug, PartialEq)]
pub enum CsvError {
    /// The rate header (`# rate=<hz>`) is missing or malformed.
    MissingRate,
    /// The rate header holds a number that is not a positive, finite rate.
    BadRate {
        /// 1-based line number of the rate header.
        line: usize,
        /// The rate text.
        field: String,
    },
    /// The column-name header line is missing.
    MissingHeader,
    /// The headers are followed by no data row.
    NoData,
    /// A data row has the wrong number of fields.
    RowWidth {
        /// 1-based line number of the offending row.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A field failed to parse as a finite number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field text.
        field: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingRate => write!(f, "missing '# rate=<hz>' header"),
            CsvError::BadRate { line, field } => {
                write!(f, "line {line}: rate '{field}' is not a positive finite number")
            }
            CsvError::MissingHeader => write!(f, "missing column-name header"),
            CsvError::NoData => write!(f, "no data rows after the headers"),
            CsvError::RowWidth { line, got, expected } => {
                write!(f, "line {line}: {got} fields, expected {expected}")
            }
            CsvError::BadNumber { line, field } => {
                write!(f, "line {line}: '{field}' is not a finite number")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Serializes a stream: `# rate=<hz>`, a column-name header, then one row
/// per frame.
pub fn to_csv(stream: &MultiStream) -> String {
    let mut out = String::new();
    out.push_str(&format!("# rate={}\n", stream.spec().sample_rate));
    out.push_str(&stream.spec().channel_names.join(","));
    out.push('\n');
    for t in 0..stream.len() {
        let row: Vec<String> = stream.frame(t).iter().map(|v| format!("{v}")).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Parses a stream CSV produced by [`to_csv`] (or hand-written in the same
/// shape). The input is refused unless its rate is positive and finite,
/// every sample is a finite number, and at least one data row follows the
/// headers.
pub fn from_csv(text: &str) -> Result<MultiStream, CsvError> {
    let mut lines = text.lines().enumerate();

    // Rate header.
    let rate = loop {
        match lines.next() {
            None => return Err(CsvError::MissingRate),
            Some((_, l)) if l.trim().is_empty() => continue,
            Some((idx, l)) => {
                let l = l.trim();
                let value = l
                    .strip_prefix("# rate=")
                    .or_else(|| l.strip_prefix("#rate="))
                    .ok_or(CsvError::MissingRate)?
                    .trim();
                let rate = value.parse::<f64>().map_err(|_| CsvError::MissingRate)?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(CsvError::BadRate { line: idx + 1, field: value.to_string() });
                }
                break rate;
            }
        }
    };

    // Column names.
    let names: Vec<String> = match lines.next() {
        None => return Err(CsvError::MissingHeader),
        Some((_, l)) => l.split(',').map(|s| s.trim().to_string()).collect(),
    };
    if names.is_empty() || names.iter().all(|n| n.is_empty()) {
        return Err(CsvError::MissingHeader);
    }

    let spec = StreamSpec::new(names, rate);
    let mut stream = MultiStream::new(spec);
    let expected = stream.channels();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != expected {
            return Err(CsvError::RowWidth { line: idx + 1, got: fields.len(), expected });
        }
        let mut frame = Vec::with_capacity(expected);
        for f in fields {
            let f = f.trim();
            match f.parse::<f64>() {
                Ok(v) if v.is_finite() => frame.push(v),
                _ => return Err(CsvError::BadNumber { line: idx + 1, field: f.to_string() }),
            }
        }
        stream.push(&frame);
    }
    if stream.is_empty() {
        return Err(CsvError::NoData);
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> MultiStream {
        let spec = StreamSpec::new(vec!["a".into(), "b".into()], 50.0);
        MultiStream::from_channels(spec, &[vec![1.0, 2.5, -3.0], vec![0.0, 1e-6, 42.0]])
    }

    #[test]
    fn roundtrip() {
        let s = stream();
        let csv = to_csv(&s);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back.spec(), s.spec());
        assert_eq!(back.len(), 3);
        for t in 0..3 {
            for c in 0..2 {
                assert_eq!(back.value(t, c), s.value(t, c), "t={t} c={c}");
            }
        }
    }

    #[test]
    fn tolerates_blank_lines_and_spaces() {
        let text = "\n# rate=10\n x , y \n1, 2\n\n3 ,4\n";
        let s = from_csv(text).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.spec().channel_names, vec!["x", "y"]);
        assert_eq!(s.value(1, 1), 4.0);
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(from_csv(""), Err(CsvError::MissingRate));
        assert_eq!(from_csv("# rate=ten\n"), Err(CsvError::MissingRate));
        assert_eq!(from_csv("# rate=10\n"), Err(CsvError::MissingHeader));
        let widths = from_csv("# rate=10\na,b\n1,2,3\n");
        assert_eq!(widths, Err(CsvError::RowWidth { line: 3, got: 3, expected: 2 }));
        let bad = from_csv("# rate=10\na,b\n1,zap\n");
        assert_eq!(bad, Err(CsvError::BadNumber { line: 3, field: "zap".into() }));
    }

    #[test]
    fn a_rate_that_is_not_positive_and_finite_is_refused_with_its_line() {
        for rate in ["0", "-5", "nan", "NaN", "inf", "-inf"] {
            let err = from_csv(&format!("\n# rate={rate}\na,b\n1,2\n")).unwrap_err();
            assert_eq!(err, CsvError::BadRate { line: 2, field: rate.into() });
            assert!(err.to_string().starts_with("line 2: "), "{err}");
        }
    }

    #[test]
    fn a_non_finite_sample_is_refused_with_its_line() {
        for field in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let text = format!("# rate=10\na,b\n1,2\n3,{field}\n");
            let want = CsvError::BadNumber { line: 4, field: field.into() };
            assert_eq!(from_csv(&text), Err(want), "{field}");
        }
    }

    #[test]
    fn headers_without_data_rows_are_refused() {
        assert_eq!(from_csv("# rate=10\na,b\n"), Err(CsvError::NoData));
        assert_eq!(from_csv("# rate=10\na,b\n\n  \n"), Err(CsvError::NoData));
    }

    #[test]
    fn glove_session_roundtrips() {
        use crate::glove::CyberGloveRig;
        use crate::noise::NoiseSource;
        let rig = CyberGloveRig::default();
        let mut noise = NoiseSource::seeded(1);
        let s = rig.record_session(0.5, 0.5, &mut noise);
        let back = from_csv(&to_csv(&s)).unwrap();
        assert_eq!(back.channels(), 28);
        assert_eq!(back.len(), s.len());
        // Values survive the decimal round trip exactly ({} prints the
        // shortest representation that reparses identically).
        for t in (0..s.len()).step_by(7) {
            assert_eq!(back.frame(t), s.frame(t));
        }
    }
}
