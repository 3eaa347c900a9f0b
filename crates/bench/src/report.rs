//! Small reporting helpers shared by the table/figure harness binaries.

/// Render a Markdown table from a header row and data rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        header.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders_header_and_rows() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
        assert_eq!(t.lines().count(), 4);
    }
}
