package perf

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the sample median; NaN for no samples.
func Median(xs []float64) float64 {
	_, q2, _ := Quartiles(xs)
	return q2
}

// Quantile is the Harrell–Davis estimate of the p-th quantile (0 < p < 1):
// a weighted mean of every order statistic, with Beta(p(n+1), (1−p)(n+1))
// weights. Latency percentiles use it because job times cluster by subject,
// and a plain sample percentile jumps whenever two subjects near the cut
// swap places from one run to the next. NaN for no samples.
func Quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads computed here match ones computed with Python. A single
// sample is its own quartiles.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the interquartile range as a share of the median.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
