//! Minimal dependency-free SVG line charts for the figure renderers.
//!
//! Just enough of a plotting layer to regenerate the paper's figures as
//! images: numeric axes with ticks, one polyline + markers per series, and
//! a legend. The output is plain SVG 1.1 and renders in any browser.

/// One series of a line chart.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points, plotted in the given order.
    pub points: Vec<(f64, f64)>,
}

/// Chart frame: titles and canvas size.
#[derive(Debug, Clone)]
pub struct ChartOptions {
    /// Title above the plot.
    pub title: String,
    /// X-axis caption.
    pub x_label: String,
    /// Y-axis caption.
    pub y_label: String,
    /// Canvas width in pixels.
    pub width: u32,
    /// Canvas height in pixels.
    pub height: u32,
}

impl Default for ChartOptions {
    fn default() -> Self {
        Self {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            width: 640,
            height: 420,
        }
    }
}

const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
];
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 24.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 56.0;

/// Renders series as an SVG line chart.
///
/// # Panics
///
/// Panics if no series contains a finite point.
///
/// # Examples
///
/// ```
/// use sdem_bench::plot::{line_chart, ChartOptions, Series};
///
/// let svg = line_chart(
///     &[Series { label: "SDEM-ON".into(), points: vec![(2.0, 0.38), (9.0, 0.70)] }],
///     &ChartOptions { title: "Fig. 6a".into(), ..Default::default() },
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("SDEM-ON"));
/// ```
pub fn line_chart(series: &[Series], opts: &ChartOptions) -> String {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    assert!(!pts.is_empty(), "chart needs at least one finite point");

    let (x_min, x_max) = pad_range(
        pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min),
        pts.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max),
    );
    let (y_min, y_max) = pad_range(
        pts.iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min)
            .min(0.0),
        pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max),
    );

    let (w, h) = (f64::from(opts.width), f64::from(opts.height));
    let plot_w = w - MARGIN_L - MARGIN_R;
    let plot_h = h - MARGIN_T - MARGIN_B;
    let sx = |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w;
    let sy = |y: f64| MARGIN_T + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h;

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"12\">\n"
    ));
    svg.push_str(&format!(
        "<rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n"
    ));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"20\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
        w / 2.0,
        escape(&opts.title)
    ));

    // Axes frame + ticks.
    svg.push_str(&format!(
        "<rect x=\"{MARGIN_L}\" y=\"{MARGIN_T}\" width=\"{plot_w}\" height=\"{plot_h}\" \
         fill=\"none\" stroke=\"#333\"/>\n"
    ));
    for k in 0..=5 {
        let f = f64::from(k) / 5.0;
        let xv = x_min + f * (x_max - x_min);
        let yv = y_min + f * (y_max - y_min);
        let xp = sx(xv);
        let yp = sy(yv);
        svg.push_str(&format!(
            "<line x1=\"{xp:.1}\" y1=\"{0:.1}\" x2=\"{xp:.1}\" y2=\"{1:.1}\" stroke=\"#333\"/>\n",
            MARGIN_T + plot_h,
            MARGIN_T + plot_h + 5.0
        ));
        svg.push_str(&format!(
            "<text x=\"{xp:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>\n",
            MARGIN_T + plot_h + 20.0,
            fmt_tick(xv)
        ));
        svg.push_str(&format!(
            "<line x1=\"{0:.1}\" y1=\"{yp:.1}\" x2=\"{1:.1}\" y2=\"{yp:.1}\" stroke=\"#333\"/>\n",
            MARGIN_L - 5.0,
            MARGIN_L
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n",
            MARGIN_L - 9.0,
            yp + 4.0,
            fmt_tick(yv)
        ));
        // Light horizontal gridline.
        svg.push_str(&format!(
            "<line x1=\"{MARGIN_L}\" y1=\"{yp:.1}\" x2=\"{:.1}\" y2=\"{yp:.1}\" \
             stroke=\"#ddd\" stroke-dasharray=\"3,3\"/>\n",
            MARGIN_L + plot_w
        ));
    }
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
        MARGIN_L + plot_w / 2.0,
        h - 12.0,
        escape(&opts.x_label)
    ));
    svg.push_str(&format!(
        "<text x=\"16\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {})\">{}</text>\n",
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        escape(&opts.y_label)
    ));

    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let path: Vec<String> = s
            .points
            .iter()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
            .collect();
        svg.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
            path.join(" ")
        ));
        for &(x, y) in &s.points {
            if x.is_finite() && y.is_finite() {
                svg.push_str(&format!(
                    "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"/>\n",
                    sx(x),
                    sy(y)
                ));
            }
        }
        // Legend entry.
        let ly = MARGIN_T + 16.0 + 18.0 * i as f64;
        let lx = MARGIN_L + plot_w - 150.0;
        svg.push_str(&format!(
            "<line x1=\"{lx}\" y1=\"{ly}\" x2=\"{}\" y2=\"{ly}\" stroke=\"{color}\" \
             stroke-width=\"2\"/>\n",
            lx + 22.0
        ));
        svg.push_str(&format!(
            "<text x=\"{}\" y=\"{}\">{}</text>\n",
            lx + 28.0,
            ly + 4.0,
            escape(&s.label)
        ));
    }

    svg.push_str("</svg>\n");
    svg
}

fn pad_range(lo: f64, hi: f64) -> (f64, f64) {
    if (hi - lo).abs() < 1e-12 {
        (lo - 1.0, hi + 1.0)
    } else {
        let pad = (hi - lo) * 0.05;
        (lo - pad, hi + pad)
    }
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Series> {
        vec![
            Series {
                label: "SDEM-ON".into(),
                points: vec![(2.0, 0.38), (5.0, 0.58), (9.0, 0.70)],
            },
            Series {
                label: "MBKPS".into(),
                points: vec![(2.0, 0.17), (5.0, 0.46), (9.0, 0.63)],
            },
        ]
    }

    #[test]
    fn chart_contains_frame_series_and_legend() {
        let svg = line_chart(
            &sample(),
            &ChartOptions {
                title: "Fig. 6a — memory saving".into(),
                x_label: "U".into(),
                y_label: "saving".into(),
                ..Default::default()
            },
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.matches("<circle").count() >= 6);
        assert!(svg.contains("SDEM-ON") && svg.contains("MBKPS"));
        assert!(svg.contains("Fig. 6a"));
        // Balanced tags (rough well-formedness).
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn special_characters_are_escaped() {
        let svg = line_chart(
            &[Series {
                label: "a < b & c".into(),
                points: vec![(0.0, 1.0), (1.0, 2.0)],
            }],
            &ChartOptions::default(),
        );
        assert!(svg.contains("a &lt; b &amp; c"));
    }

    #[test]
    fn constant_series_get_padded_range() {
        let svg = line_chart(
            &[Series {
                label: "flat".into(),
                points: vec![(0.0, 5.0), (1.0, 5.0)],
            }],
            &ChartOptions::default(),
        );
        assert!(svg.contains("<polyline"));
    }

    #[test]
    #[should_panic(expected = "at least one finite point")]
    fn rejects_empty_chart() {
        let _ = line_chart(&[], &ChartOptions::default());
    }
}
