package obs

import "strings"

// JSONMap renders a snapshot as a flat JSON-marshalable map — the whole
// JSON /metrics body of raced and racefleet. Counters and gauges map to their value; histograms map
// to a {count, sum, p50, p90, p99} object. Labelled series are keyed
// name{k="v",...} exactly as the Prometheus exposition spells them.
func JSONMap(snaps []MetricSnapshot) map[string]any {
	out := make(map[string]any, len(snaps))
	for _, s := range snaps {
		key := s.Name
		if len(s.Labels) > 0 {
			var b strings.Builder
			b.WriteString(s.Name)
			b.WriteByte('{')
			for i, l := range s.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(l.Key)
				b.WriteString(`="`)
				b.WriteString(escapeLabel(l.Value))
				b.WriteByte('"')
			}
			b.WriteByte('}')
			key = b.String()
		}
		if s.Kind == KindHistogram && s.Hist != nil {
			out[key] = map[string]any{
				"count": s.Hist.Count,
				"sum":   s.Hist.Sum,
				"p50":   s.Hist.Quantile(0.50),
				"p90":   s.Hist.Quantile(0.90),
				"p99":   s.Hist.Quantile(0.99),
			}
			continue
		}
		out[key] = s.Value
	}
	return out
}
