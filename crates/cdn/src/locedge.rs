//! A re-implementation of LocEdge's provider classification.
//!
//! The paper uses LocEdge (Huang et al., SIGCOMM '22 demo) to decide, for
//! each HAR entry, whether the resource came from a CDN and which provider
//! served it. LocEdge keys on response-header fingerprints — `server:`,
//! `via:`, provider-specific debug headers — plus hostname patterns. Our
//! simulated servers emit the same fingerprints
//! ([`fingerprint_headers`]), and [`classify`] recovers the provider,
//! so the analysis pipeline runs the same decision procedure as the
//! paper's.

use h3cdn_sim_core::SimRng;

use crate::provider::Provider;

/// A response header as `(name, value)`, names lower-case.
pub type Header = (String, String);

/// Emits the fingerprint headers a `provider`-operated edge attaches to
/// responses. `rng` feeds the request-scoped debug tokens (ray ids, pop
/// codes) so values look realistic without being load-bearing.
pub fn fingerprint_headers(provider: Provider, rng: &mut SimRng) -> Vec<Header> {
    let token = rng.next_u64();
    match provider {
        Provider::Google => vec![
            ("server".into(), "gws".into()),
            ("via".into(), "1.1 google".into()),
        ],
        Provider::Cloudflare => vec![
            ("server".into(), "cloudflare".into()),
            ("cf-ray".into(), format!("{token:016x}-SJC")),
            ("cf-cache-status".into(), "HIT".into()),
        ],
        Provider::Amazon => vec![
            ("server".into(), "AmazonS3".into()),
            (
                "via".into(),
                format!("1.1 {token:08x}.cloudfront.net (CloudFront)"),
            ),
            ("x-amz-cf-id".into(), format!("{token:016x}")),
            ("x-amz-cf-pop".into(), "IAD89-C1".into()),
        ],
        Provider::Fastly => vec![
            ("via".into(), "1.1 varnish".into()),
            ("x-served-by".into(), format!("cache-bur-{token:04x}")),
            ("x-cache".into(), "HIT".into()),
        ],
        Provider::Akamai => vec![
            ("server".into(), "AkamaiGHost".into()),
            ("x-akamai-transformed".into(), "9 - 0 pmb=mRUM,1".into()),
        ],
        Provider::Microsoft => vec![
            ("server".into(), "ECAcc".into()),
            ("x-azure-ref".into(), format!("0{token:015x}")),
        ],
        Provider::QuicCloud => vec![
            ("server".into(), "LiteSpeed".into()),
            ("x-qc-pop".into(), format!("US-{token:02x}")),
            ("x-qc-cache".into(), "hit".into()),
        ],
        Provider::Other => vec![
            ("server".into(), "cdn-cache/2.4".into()),
            ("x-cdn".into(), "edgecast-lite".into()),
        ],
    }
}

/// Headers an origin (non-CDN) web server emits — deliberately free of
/// any CDN fingerprint.
pub fn origin_headers() -> Vec<Header> {
    vec![("server".into(), "nginx/1.22.1".into())]
}

/// Classifies a response as CDN-served, returning the provider, or
/// `None` for a non-CDN origin response. `domain` participates as a
/// fallback pattern, exactly as LocEdge uses hostname rules when headers
/// are inconclusive.
pub fn classify(headers: &[Header], domain: &str) -> Option<Provider> {
    let find = |name: &str| -> Option<&str> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };

    if let Some(server) = find("server") {
        if contains_ignore_case(server, "cloudflare") {
            return Some(Provider::Cloudflare);
        }
        if server.eq_ignore_ascii_case("gws") || contains_ignore_case(server, "gse") {
            return Some(Provider::Google);
        }
        if contains_ignore_case(server, "akamai") {
            return Some(Provider::Akamai);
        }
        if contains_ignore_case(server, "ecacc") || contains_ignore_case(server, "ecs (") {
            return Some(Provider::Microsoft);
        }
        if contains_ignore_case(server, "litespeed") && find("x-qc-pop").is_some() {
            return Some(Provider::QuicCloud);
        }
    }
    if find("x-amz-cf-id").is_some() || find("x-amz-cf-pop").is_some() {
        return Some(Provider::Amazon);
    }
    if let Some(via) = find("via") {
        if contains_ignore_case(via, "google") {
            return Some(Provider::Google);
        }
        if contains_ignore_case(via, "cloudfront") {
            return Some(Provider::Amazon);
        }
        if contains_ignore_case(via, "varnish") && find("x-served-by").is_some() {
            return Some(Provider::Fastly);
        }
    }
    if find("cf-ray").is_some() {
        return Some(Provider::Cloudflare);
    }
    if find("x-azure-ref").is_some() {
        return Some(Provider::Microsoft);
    }
    if find("x-cdn").is_some() {
        return Some(Provider::Other);
    }

    // Hostname fallback rules.
    let d = |suffix: &str| ends_with_ignore_case(domain, suffix);
    if d("googleapis.com") || d("gstatic.com") || d("ggpht.com") {
        return Some(Provider::Google);
    }
    if d("cloudfront.net") {
        return Some(Provider::Amazon);
    }
    if d("fastly.net") || d("fastlylb.net") {
        return Some(Provider::Fastly);
    }
    if d("akamaized.net") || d("akamaihd.net") {
        return Some(Provider::Akamai);
    }
    if d("azureedge.net") {
        return Some(Provider::Microsoft);
    }
    if d("cdn.cloudflare.net") {
        return Some(Provider::Cloudflare);
    }
    if d("quic.cloud") {
        return Some(Provider::QuicCloud);
    }
    None
}

/// Whether `haystack` contains the lower-case ASCII `needle`, ignoring
/// ASCII case — `to_ascii_lowercase().contains(needle)` without the copy.
fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Whether `haystack` ends with the lower-case ASCII `suffix`, ignoring
/// ASCII case.
fn ends_with_ignore_case(haystack: &str, suffix: &str) -> bool {
    haystack
        .len()
        .checked_sub(suffix.len())
        .and_then(|start| haystack.as_bytes().get(start..))
        .is_some_and(|tail| tail.eq_ignore_ascii_case(suffix.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-allocation-free classifier, verbatim: it lower-cases the
    /// `server`, `via` and domain values into new `String`s.
    fn classify_lowercased(headers: &[Header], domain: &str) -> Option<Provider> {
        let find = |name: &str| -> Option<&str> {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };

        if let Some(server) = find("server") {
            let s = server.to_ascii_lowercase();
            if s.contains("cloudflare") {
                return Some(Provider::Cloudflare);
            }
            if s == "gws" || s.contains("gse") {
                return Some(Provider::Google);
            }
            if s.contains("akamai") {
                return Some(Provider::Akamai);
            }
            if s.contains("ecacc") || s.contains("ecs (") {
                return Some(Provider::Microsoft);
            }
            if s.contains("litespeed") && find("x-qc-pop").is_some() {
                return Some(Provider::QuicCloud);
            }
        }
        if find("x-amz-cf-id").is_some() || find("x-amz-cf-pop").is_some() {
            return Some(Provider::Amazon);
        }
        if let Some(via) = find("via") {
            let v = via.to_ascii_lowercase();
            if v.contains("google") {
                return Some(Provider::Google);
            }
            if v.contains("cloudfront") {
                return Some(Provider::Amazon);
            }
            if v.contains("varnish") && find("x-served-by").is_some() {
                return Some(Provider::Fastly);
            }
        }
        if find("cf-ray").is_some() {
            return Some(Provider::Cloudflare);
        }
        if find("x-azure-ref").is_some() {
            return Some(Provider::Microsoft);
        }
        if find("x-cdn").is_some() {
            return Some(Provider::Other);
        }

        // Hostname fallback rules.
        let d = domain.to_ascii_lowercase();
        if d.ends_with("googleapis.com") || d.ends_with("gstatic.com") || d.ends_with("ggpht.com") {
            return Some(Provider::Google);
        }
        if d.ends_with("cloudfront.net") {
            return Some(Provider::Amazon);
        }
        if d.ends_with("fastly.net") || d.ends_with("fastlylb.net") {
            return Some(Provider::Fastly);
        }
        if d.ends_with("akamaized.net") || d.ends_with("akamaihd.net") {
            return Some(Provider::Akamai);
        }
        if d.ends_with("azureedge.net") {
            return Some(Provider::Microsoft);
        }
        if d.ends_with("cdn.cloudflare.net") {
            return Some(Provider::Cloudflare);
        }
        if d.ends_with("quic.cloud") {
            return Some(Provider::QuicCloud);
        }
        None
    }

    #[test]
    fn case_insensitive_matching_agrees_with_lowercased_copies() {
        fn variants(value: &str) -> Vec<String> {
            let alternating: String = value
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            vec![
                value.to_owned(),
                value.to_ascii_uppercase(),
                value.to_ascii_lowercase(),
                alternating,
            ]
        }
        let mut rng = SimRng::seed_from(3);
        let mut header_sets: Vec<Vec<Header>> = Provider::ALL
            .iter()
            .map(|&p| fingerprint_headers(p, &mut rng))
            .collect();
        header_sets.push(origin_headers());
        header_sets.push(vec![]);
        header_sets.push(vec![("server".into(), "ECS (dca/24A2)".into())]);
        header_sets.push(vec![("server".into(), "GSE".into())]);
        header_sets.push(vec![("server".into(), "gws2".into())]);
        header_sets.push(vec![("server".into(), "Ünïcödé LiteSpeed".into())]);
        let domains = [
            "static.example.com",
            "fonts.googleapis.com",
            "d1.cloudfront.net",
            "a.fastlylb.net",
            "x.akamaihd.net",
            "e.azureedge.net",
            "s.cdn.cloudflare.net",
            "q.quic.cloud",
            "net",
            "",
        ];
        let mut checked = 0;
        for headers in &header_sets {
            // Every header value in each case variant, one at a time.
            let mut cases = vec![headers.clone()];
            for (i, (_, value)) in headers.iter().enumerate() {
                for variant in variants(value) {
                    let mut changed = headers.clone();
                    if let Some(slot) = changed.get_mut(i) {
                        slot.1 = variant;
                    }
                    cases.push(changed);
                }
            }
            for case in &cases {
                for domain in domains.iter().flat_map(|d| variants(d)) {
                    assert_eq!(
                        classify(case, &domain),
                        classify_lowercased(case, &domain),
                        "headers {case:?}, domain {domain:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1_000);
    }

    #[test]
    fn every_provider_round_trips_through_headers() {
        let mut rng = SimRng::seed_from(1);
        for p in Provider::ALL {
            let headers = fingerprint_headers(p, &mut rng);
            assert_eq!(
                classify(&headers, "static.example.com"),
                Some(p),
                "classification must invert fingerprinting for {p}"
            );
        }
    }

    #[test]
    fn origin_headers_classify_as_non_cdn() {
        assert_eq!(classify(&origin_headers(), "www.example.com"), None);
    }

    #[test]
    fn hostname_fallback_rules() {
        let no_headers: Vec<Header> = vec![];
        assert_eq!(
            classify(&no_headers, "fonts.googleapis.com"),
            Some(Provider::Google)
        );
        assert_eq!(
            classify(&no_headers, "d1234.cloudfront.net"),
            Some(Provider::Amazon)
        );
        assert_eq!(
            classify(&no_headers, "assets.fastly.net"),
            Some(Provider::Fastly)
        );
        assert_eq!(
            classify(&no_headers, "media.akamaized.net"),
            Some(Provider::Akamai)
        );
        assert_eq!(classify(&no_headers, "www.example.org"), None);
    }

    #[test]
    fn classification_is_case_insensitive_on_values() {
        let headers = vec![("server".into(), "CloudFlare".into())];
        assert_eq!(classify(&headers, "x.com"), Some(Provider::Cloudflare));
    }

    #[test]
    fn amazon_detected_by_debug_header_alone() {
        let headers = vec![("x-amz-cf-id".into(), "abc".into())];
        assert_eq!(classify(&headers, "x.com"), Some(Provider::Amazon));
    }

    #[test]
    fn fastly_needs_varnish_and_served_by() {
        // `via: varnish` alone is ambiguous (self-hosted Varnish).
        let ambiguous = vec![("via".into(), "1.1 varnish".into())];
        assert_eq!(classify(&ambiguous, "x.com"), None);
        let fastly = vec![
            ("via".into(), "1.1 varnish".into()),
            ("x-served-by".into(), "cache-bur-1".into()),
        ];
        assert_eq!(classify(&fastly, "x.com"), Some(Provider::Fastly));
    }
}
