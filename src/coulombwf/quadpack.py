"""Adaptive quadrature: QUADPACK's QAGS in pure Python.

A line-by-line translation of ``dqagse`` with ``dqk21``, ``dqpsrt`` and
``dqelg`` (R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, *QUADPACK: a subroutine package for automatic integration*,
Springer, 1983): globally adaptive bisection with the 21-point
Gauss-Kronrod rule, and Wynn's epsilon algorithm to extrapolate.  Every
floating-point operation keeps QUADPACK's order, so value and error estimate
are bit-identical to a faithful compilation of it, such as the one behind
``scipy.integrate.quad``.  Arrays keep QUADPACK's 1-based indices; slot 0
is never used.
"""

import sys

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

EPSABS, EPSREL, LIMIT = 1e-13, 1e-11, 400  # the one setting qags runs at

IER = ("converged", "subdivision limit reached", "roundoff error detected",
       "extremely bad integrand behaviour", "roundoff error in the extrapolation table",
       "integral probably divergent or slowly convergent")

# 21-point Kronrod abscissae, of which _XGK[1::2] are the 10-point Gauss
# ones, their weights and the Gauss weights, as QUADPACK states them.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss abscissae first
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord in descending order of elist, as far as later
    bisections can still reach; returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = LIMIT + 3 - last if last > LIMIT // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            # insert errmax top-down, then errmin bottom-up
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd], iord[jupbn] = maxerr, last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one epsilon-algorithm step on epstab[1..n] (52 slots), which
    it updates, like n; returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], epstab[k1 + 2]
            e1abs, delta2, delta3 = abs(e1), e2 - e1, e1 - e0
            err2, tol2 = abs(delta2), max(abs(e2), e1abs) * _EPMACH
            err3, tol3 = abs(delta3), max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                result, abserr = e2, err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3, epstab[k1] = epstab[k1], e1
            delta1 = e1 - e3
            err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two elements nearly equal: drop the table's tail
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1  # irregular behaviour: drop the table's tail
                break
            res = epstab[k1] = e1 + 1.0 / ss
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        if n == 50:  # limexp
            n = 49
        ib = 2 - num % 2
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        for i in range(1, n + 1):
            epstab[i] = epstab[num - n + i]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qags(f, a, b):
    """dqagse: integral of f over [a, b] to max(EPSABS, EPSREL |I|) on at
    most LIMIT subintervals; returns (result, abserr, ier).

    ier is QUADPACK's code, which IER spells out; the error estimate is
    trustworthy only at ier = 0.
    """
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(EPSABS, EPSREL * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    alist, blist = [0.0, a] + [0.0] * LIMIT, [0.0, b] + [0.0] * LIMIT
    rlist, elist = [0.0, result] + [0.0] * LIMIT, [0.0, abserr] + [0.0] * LIMIT
    iord, rlist2, res3la = [0, 1] + [0] * LIMIT, [0.0, result] + [0.0] * 51, [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin, iroff1, iroff2, iroff3 = 1, 0, 2, 0, 0, 0, 0
    extrap = noext = summed = False
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    for last in range(2, LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2, erlast = alist[maxerr], blist[maxerr], errmax
        a2 = b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(EPSABS, EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if not (ierro == 3 or erlarg <= ertest):
            # first bisect the larger intervals while they hold large errors
            large = False
            for _ in range(nrmax, (last if last <= 2 + LIMIT // 2 else LIMIT + 3 - last) + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                large = abs(blist[maxerr] - alist[maxerr]) > small
                if large:
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(EPSABS, EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax, extrap, small, erlarg = 1, False, small * 0.5, errsum
    # take the extrapolated result or the sum over the subintervals
    summed = summed or abserr == _OFLOW
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # divergence test; errsum first, so that area = 0 never divides
        if errsum > abs(area) or 0.01 > result / area or result / area > 100.0:
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier
