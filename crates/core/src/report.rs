//! Plain-text result tables for the bench binaries: the workspace's one
//! table layout (`metalora_obs::report::render_table`) and the accuracy
//! cell format.

pub use metalora_obs::report::render_table;

/// Formats a fraction as a percentage with an optional significance star.
pub fn pct(x: f64, star: bool) -> String {
    format!("{:.2}%{}", 100.0 * x, if star { "*" } else { "" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.7324, true), "73.24%*");
        assert_eq!(pct(0.5, false), "50.00%");
    }
}
