//! Human-readable report rendering for experiment results.

use crate::rootcause::{Penetration, PenetrationBreakdown};

/// Render a Figure-3-style distribution table.
pub fn render_breakdown(b: &PenetrationBreakdown) -> String {
    let mut rows: Vec<Vec<String>> = Penetration::CATEGORIES
        .iter()
        .map(|&p| vec![p.name().into(), b.get(p).to_string(), format!("{:.2}%", b.percent(p))])
        .collect();
    let totals = [
        ("(unprotected)", b.unprotected),
        ("(other)", b.other),
        ("deficiencies", b.deficiency_total()),
    ];
    rows.extend(totals.map(|(label, n)| vec![label.into(), n.to_string(), String::new()]));
    render_table(&["category", "cases", "share"], &rows)
}

/// Render a GitHub-Markdown pipe table given a header and rows of cells:
/// the first column left-aligned, the others right-aligned, every cell
/// padded to its column's width so the table also reads aligned as text.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: &[String]| {
        let padded = cells.iter().zip(&widths).enumerate().map(|(i, (c, &w))| match i {
            0 => format!(" {c:<w$} |"),
            _ => format!(" {c:>w$} |"),
        });
        format!("|{}\n", padded.collect::<String>())
    };
    let dashes = |w: usize| "-".repeat(w.saturating_sub(1));
    let rule: Vec<String> = (0..widths.len())
        .map(|i| match i {
            0 => format!(":{}", dashes(widths[i])),
            _ => format!("{}:", dashes(widths[i])),
        })
        .collect();
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut s = line(&head) + &line(&rule);
    for row in rows {
        s.push_str(&line(row));
    }
    s
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_renders_all_categories() {
        let b = PenetrationBreakdown {
            store: 39,
            branch: 35,
            comparison: 20,
            call: 3,
            mapping: 3,
            ..Default::default()
        };
        let s = render_breakdown(&b);
        for name in ["store", "branch", "comparison", "call", "mapping", "deficiencies"] {
            assert!(s.contains(name), "{s}");
        }
        assert!(s.contains("39.00%"), "{s}");
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["bench", "cov"],
            &[vec!["bfs".into(), "53.3%".into()], vec!["stringsearch".into(), "12.0%".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(
            lines,
            [
                "| bench        |   cov |",
                "| :----------- | ----: |",
                "| bfs          | 53.3% |",
                "| stringsearch | 12.0% |",
            ]
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.3121), "31.21%");
        assert_eq!(pct(1.0), "100.00%");
    }
}
